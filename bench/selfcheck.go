package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

const noisePath = "bench/NOISE.md"

// child runs one workload in a process of its own, the way the benchmark
// driver does, and parses the result line. One child at a time: separate
// processes keep one run's heap out of the next one's GC pacing and make
// peak_rss_mb a per-run number.
func child(workload string, seed uint64, seconds float64, trace bool, log io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", t)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = log
	runErr := cmd.Run() // waits for the child to end
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("%s: no result line: %v", workload, err)
	}
	return res, nil
}

// runAll is the one command that prints every metric by name: each workload
// untraced, then traced.
func runAll(seed uint64, seconds float64, stdout, stderr io.Writer) int {
	fmt.Fprintln(stdout, "environment:", envStamp())
	code := 0
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		table := map[string]result{}
		for _, w := range workloads {
			res, err := child(w.name, seed, seconds, trace, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			table[w.name] = res
		}
		fmt.Fprintf(stdout, "\n%-34s %-6s", "metric", "unit")
		for _, w := range workloads {
			fmt.Fprintf(stdout, " %13s", w.name)
		}
		fmt.Fprintln(stdout)
		for _, d := range defs {
			fmt.Fprintf(stdout, "%-34s %-6s", d.name, d.unit)
			for _, w := range workloads {
				fmt.Fprintf(stdout, " %13.5g", table[w.name].Metrics[d.name].Value)
			}
			if d.moves != "" {
				fmt.Fprintf(stdout, "  moves %s", d.moves)
			}
			fmt.Fprintln(stdout)
		}
		if !trace {
			fmt.Fprintf(stdout, "%-34s %-6s", "ops failed / attempted", "count")
			for _, w := range workloads {
				fmt.Fprintf(stdout, " %13s", fmt.Sprintf("%d/%d", table[w.name].Failed, table[w.name].Attempted))
			}
			fmt.Fprintln(stdout)
		}
	}
	return code
}

// runSelfcheck measures the benchmark's own noise: two sets of n runs per
// workload of the same code on the same n seeds, one process per run. The
// sets alternate run by run (seed 1 for set A, seed 1 for set B, seed 2 for
// set A, ...), each run of a set being one run of every workload, so that the host's drift
// over the half hour this takes falls on both sets alike and `worse`
// compares like with like. For every end-to-end metric it reports both
// medians, by how much B's is worse than A's, and the quartile spread of
// each set, against the metric's bound. The table goes to bench/NOISE.md.
func runSelfcheck(n int, seed uint64, seconds float64, stdout, stderr io.Writer) int {
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	failed := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				s := seed + uint64(i)
				res, err := child(w.name, s, seconds, false, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				failed += res.Failed
				fmt.Fprintf(stdout, "%4.0f s  set %c seed %d %-11s failed %d of %d ", time.Since(start).Seconds(), 'A'+set, s, w.name, res.Failed, res.Attempted)
				for _, d := range endToEnd {
					v := res.Metrics[d.name].Value
					values[set][key{w.name, d.name}] = append(values[set][key{w.name, d.name}], v)
					fmt.Fprintf(stdout, " %s=%.5g", d.name, v)
				}
				fmt.Fprintln(stdout)
			}
		}
	}

	var md strings.Builder
	fmt.Fprintf(&md, "# Noise of the benchmark\n\n")
	fmt.Fprintf(&md, "Written by `bench --selfcheck %d --seed %d --seconds %g`; do not edit by hand.\n\n", n, seed, seconds)
	fmt.Fprintf(&md, "Environment: %s\n\n", envStamp())
	fmt.Fprintf(&md, "Two sets, A and B, of %d runs per workload of the same code on seeds %d..%d, one process per run, ", n, seed, seed+uint64(n)-1)
	fmt.Fprintf(&md, "alternating run by run so that the host's drift falls on both alike. ")
	fmt.Fprintf(&md, "`worse` is by how much the median of B is worse than that of A; ")
	fmt.Fprintf(&md, "`spread` is the distance between the quartiles of a set as a share of its median ")
	fmt.Fprintf(&md, "(Python's `statistics.quantiles(values, n=4)`), and contains the difference between seeds ")
	fmt.Fprintf(&md, "and the host's drift over the %.0f minutes the check took. ", time.Since(start).Minutes())
	fmt.Fprintf(&md, "Verdict: FAIL when `worse` is beyond half the bound or a spread is beyond the bound ")
	fmt.Fprintf(&md, "(`setup_s` is held to `worse` only), `wide` when a spread is beyond a third of the bound, else ok.\n\n")
	fmt.Fprintf(&md, "Ops failed over all %d runs: %d.\n\n", 2*n*len(workloads), failed)
	fmt.Fprintf(&md, "| workload | metric | median A | median B | worse | spread A | spread B | bound | verdict |\n")
	fmt.Fprintf(&md, "|---|---|---|---|---|---|---|---|---|\n")
	code := 0
	if failed > 0 {
		code = 1
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values[0][key{w.name, d.name}], values[1][key{w.name, d.name}]
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if d.better == "higher" {
				worse = -worse
			}
			verdict := selfcheckVerdict(d, worse, quartileSpread(a), quartileSpread(b))
			if verdict == "FAIL" {
				code = 1
			}
			fmt.Fprintf(&md, "| %s | %s | %.5g | %.5g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.name, d.name, ma, mb, worse*100, quartileSpread(a)*100, quartileSpread(b)*100, d.bound*100, verdict)
		}
	}
	fmt.Fprint(stdout, md.String())
	if err := os.WriteFile(noisePath, []byte(md.String()), 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return code
}

// selfcheckVerdict holds one (metric, workload) pair of a selfcheck against
// the metric's bound. Two sets of runs of the same code must agree within
// half the bound, or a change that worsens the metric by the bound could not
// be told from a repeat; a spread beyond the bound is what the benchmark's
// driver refuses (it exempts setup_s), beyond a third of it what the driver's
// contract calls unsteady.
func selfcheckVerdict(d metricDef, worse, spreadA, spreadB float64) string {
	spread := math.Max(spreadA, spreadB)
	if d.name == "setup_s" {
		spread = 0
	}
	switch {
	case worse > d.bound/2, spread > d.bound:
		return "FAIL"
	case spread > d.bound/3:
		return "wide"
	}
	return "ok"
}
