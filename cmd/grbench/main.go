// Command grbench regenerates the per-experiment tables of EXPERIMENTS.md:
// the reproduction artifacts for each table and figure of "Design of the
// GraphBLAS API for C" (see DESIGN.md §3 for the experiment index).
//
//	grbench -exp all
//	grbench -exp E5 -scale 12
//	grbench -exp DAG -sched dag
//
// E4 (API-surface parity) and E7 (error model) are pure test-suite
// experiments: run `go test -run 'TestAPISurface|TestErrorModel' ./...`.
// E7b quantifies the fault-injection harness: faults injected, CSR retries,
// transactional rollbacks, and result integrity under each plan.
// DAG sweeps the flush-parallelism experiment (sequential vs DAG scheduler
// on chained vs independent workloads) and writes BENCH_dataflow.json.
// STREAM sweeps the streaming graph engine (batched edge updates across
// merge policies, plus incremental vs from-scratch PageRank) and writes
// BENCH_streaming.json.
// SERVE drives the grbserve stack with the seeded load generator under four
// regimes (nominal, overload, tight deadlines, injected faults) and writes
// BENCH_serving.json.
// SHARD drives the same load against the row-partitioned multi-engine store
// at 1/2/4/8 shards (shards=1 is the single-engine baseline) plus a direct
// sharded-ingest timing, and writes BENCH_sharding.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"graphblas"
	"graphblas/internal/core"
)

// serveRequests is the -requests flag: per-row query count of the SERVE sweep.
var serveRequests int

// forceBench is the -force flag: allow a run to overwrite a bench JSON that
// was generated on better hardware (see guardStaleBench).
var forceBench bool

func main() {
	exp := flag.String("exp", "all", "experiment id: E1 E2 E3 E5 E6 E7B E8 DAG STREAM SERVE SHARD or all")
	scale := flag.Int("scale", 11, "RMAT scale for the workload experiments")
	ef := flag.Int("ef", 8, "RMAT edge factor")
	seed := flag.Uint64("seed", 42, "generator seed")
	sched := flag.String("sched", "dag", "nonblocking flush scheduler: dag or sequential")
	metrics := flag.Bool("metrics", false, "trace the run and dump the engine metrics registry (Prometheus text) after the experiments")
	flag.IntVar(&serveRequests, "requests", 400, "SERVE: query requests per load-regime row")
	flag.BoolVar(&forceBench, "force", false, "overwrite bench JSONs even when the existing file was generated on more cores than this host has")
	flag.Parse()

	if err := graphblas.Init(graphblas.NonBlocking); err != nil {
		log.Fatal(err)
	}
	defer graphblas.Finalize()

	if *metrics {
		graphblas.SetTracer(graphblas.NewMetricsTracer())
		graphblas.SetProfilingLabels(true)
		defer func() {
			fmt.Println("=== engine metrics (Prometheus text exposition) ===")
			if err := graphblas.WriteMetricsText(os.Stdout); err != nil {
				log.Printf("metrics dump failed: %v", err)
			}
		}()
	}

	switch strings.ToLower(*sched) {
	case "dag":
		core.SetScheduler(core.SchedDag)
	case "sequential", "seq":
		core.SetScheduler(core.SchedSequential)
	default:
		log.Fatalf("unknown scheduler %q (valid: dag, sequential)", *sched)
	}

	run := map[string]func(scale, ef int, seed uint64){
		"E1": runE1, "E2": runE2, "E3": runE3, "E5": runE5, "E6": runE6, "E7B": runE7b, "E8": runE8,
		"DAG": runDag, "STREAM": runStream, "SERVE": runServe, "SHARD": runShard,
	}
	ids := []string{"E1", "E2", "E3", "E5", "E6", "E7B", "E8", "DAG", "STREAM", "SERVE", "SHARD"}
	want := strings.ToUpper(*exp)
	matched := false
	for _, id := range ids {
		if want == "ALL" || want == id {
			run[id](*scale, *ef, *seed)
			fmt.Println()
			matched = true
		}
	}
	if !matched {
		log.Fatalf("unknown experiment %q (valid: %v, all)", *exp, ids)
	}
}

// header prints a section banner. Every experiment header names the active
// flush scheduler and worker bound, so logs and the bench JSONs derived
// from them are self-describing about how the engine executed.
func header(id, title string) {
	fmt.Printf("=== %s — %s [sched=%v workers=%d] ===\n",
		id, title, core.CurrentScheduler(), graphblas.MaxWorkers())
}

// benchEnv is embedded in every BENCH_*.json report so a reader can judge
// parallel numbers against the hardware that produced them — an earlier
// BENCH_dataflow.json was generated on one core and its speedup rows were
// silently meaningless without this context.
type benchEnv struct {
	Cores      int `json:"cores"`
	GoMaxProcs int `json:"gomaxprocs"`
}

func currentEnv() benchEnv {
	return benchEnv{Cores: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}
}

// warnIfSerial flags a parallelism-sensitive experiment running without any:
// the numbers are still valid measurements, but speedup conclusions are not.
func warnIfSerial(id string) {
	if env := currentEnv(); env.Cores == 1 || env.GoMaxProcs == 1 {
		fmt.Printf("WARNING: %s is a parallel experiment but this run has cores=%d GOMAXPROCS=%d; "+
			"speedup rows will collapse to ~1x by physics\n", id, env.Cores, env.GoMaxProcs)
	}
}

// guardStaleBench refuses to let a single-core run clobber a bench JSON that
// was generated on a multi-core host: the committed artifact would silently
// downgrade from real speedup rows to ~1× physics, which is exactly the
// regression that hid the chained-workload slowdown. -force overrides (for
// intentional single-core baselines).
func guardStaleBench(path string) {
	if err := staleBenchErr(path, currentEnv(), forceBench); err != nil {
		log.Fatal(err)
	}
}

// staleBenchErr is the guard's decision: non-nil when overwriting path from
// the cur environment would replace multi-core speedup rows with single-core
// ones and force is not set. A missing or unparseable existing file protects
// nothing.
func staleBenchErr(path string, cur benchEnv, force bool) error {
	if force {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var prev benchEnv
	if json.Unmarshal(data, &prev) != nil {
		return nil
	}
	if prev.Cores > 1 && cur.Cores == 1 {
		return fmt.Errorf("refusing to overwrite %s: existing file was generated with cores=%d, "+
			"this run has cores=%d and its speedup rows would be meaningless; "+
			"rerun on comparable hardware or pass -force", path, prev.Cores, cur.Cores)
	}
	return nil
}
