// Command bench is the benchmark of record of this repository: five
// workloads, four end-to-end metrics, and a per-layer table measured from
// outside the program. See README.md in this directory.
//
// The benchmark driver runs, from the repository root,
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload the command
// runs every workload once untraced and once traced and prints the whole
// table; with --selfcheck n it measures its own noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// A run has one P. This benchmark runs on a few virtual cores of a shared
// host, where a second P bought no wall time and added half again as much
// processor time in idle spinning and hand-overs, by an amount that followed
// the host's load and not the program (README.md, "Noise"). The engine keeps
// engineWorkers workers all the same (graphblas.SetMaxWorkers), so it plans,
// fuses and dispatches as on a two-core host, and the paths taken and the
// counts reported do not depend on how many cores the host shows; the one P
// runs the workers in turn, and the processor time of a run is the work the
// program did.
const (
	runProcs      = 1
	engineWorkers = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run; empty runs all of them")
	seed := fs.Uint64("seed", 42, "input seed")
	seconds := fs.Float64("seconds", 15, "timed seconds of one run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	selfcheck := fs.Int("selfcheck", 0, "run every workload on this many seeds, in two alternating sets, and write bench/NOISE.md")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(runProcs)
	switch {
	case *selfcheck > 0:
		return runSelfcheck(*selfcheck, *seed, *seconds, stdout, stderr)
	case *workload == "":
		return runAll(*seed, *seconds, stdout, stderr)
	}
	res, err := runOne(runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, sz: fullSizes, traceDir: defaultTraceDir,
	}, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(res, stderr)
}

// exitCode is non-zero for a run whose outputs were not all correct.
func exitCode(res result, stderr io.Writer) int {
	if res.Correct {
		return 0
	}
	fmt.Fprintf(stderr, "bench: %d of %d ops failed\n", res.Failed, res.Attempted)
	return 1
}
