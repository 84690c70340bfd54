package main

// The flush-parallelism sweep (EXPERIMENTS.md E6b, BENCH_dataflow.json):
// the same deferred workload is flushed under the sequential drain and the
// DAG scheduler, on a workload shape the DAG can exploit (independent op
// chains) and one it cannot (a single dependent chain). The chained rows are
// the pure-overhead control: hazard edges leave the DAG no width there, so
// any gap between the schedulers on that workload is scheduling overhead.
// The sequential drain is not an option of the public API; the sweep reaches
// it through internal/core, where it is the DAG scheduler's test oracle.
//
// Realized speedup is bounded by min(chains, workers, cores): the JSON
// records all three so a reader (or CI on different hardware) can judge the
// numbers. On a single-core host the independent rows collapse to ~1× by
// physics; the realized schedule width (max_width) still proves the overlap
// happened.

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"graphblas"
	"graphblas/internal/core"
	"graphblas/internal/generate"
)

const (
	dagChains      = 8 // independent chains per flush
	dagOpsPerChain = 3 // MxV → ApplyV → ApplyV per chain
)

type dagRow struct {
	Workload string  `json:"workload"` // "independent" or "chained"
	Sched    string  `json:"sched"`    // "sequential" or "dag"
	Workers  int     `json:"workers"`
	Ops      int     `json:"ops_per_flush"`
	NsPerOp  float64 `json:"ns_per_flush"`
	Speedup  float64 `json:"speedup_vs_sequential"`
	DagNodes int64   `json:"dag_nodes,omitempty"`
	DagEdges int64   `json:"dag_edges,omitempty"`
	MaxWidth int64   `json:"max_width,omitempty"`
	ParFlush int64   `json:"parallel_flushes,omitempty"`
}

type dagReport struct {
	Generated string `json:"generated"`
	Command   string `json:"command"`
	benchEnv
	Scale    int      `json:"scale"`
	EdgeFac  int      `json:"edge_factor"`
	Chains   int      `json:"chains"`
	OpsChain int      `json:"ops_per_chain"`
	Note     string   `json:"note"`
	Results  []dagRow `json:"results"`
}

// dagWorkload owns the objects of one sweep: per-chain adjacency matrices
// and vector pipelines, rebuilt once and reused across timed flushes.
type dagWorkload struct {
	n   int
	a   []*graphblas.Matrix[float64]
	src []*graphblas.Vector[float64]
	mid []*graphblas.Vector[float64]
	tmp []*graphblas.Vector[float64]
	out []*graphblas.Vector[float64]
}

func buildDagWorkload(scale, ef int, seed uint64) *dagWorkload {
	w := &dagWorkload{}
	for k := 0; k < dagChains; k++ {
		g := generate.RMAT(scale, ef, seed+uint64(k)).Dedup(true)
		rows, cols, vals := g.Tuples()
		a, err := graphblas.NewMatrix[float64](g.N, g.N)
		if err != nil {
			log.Fatal(err)
		}
		if err := a.Build(rows, cols, vals, graphblas.First[float64]()); err != nil {
			log.Fatal(err)
		}
		w.n = g.N
		src, _ := graphblas.NewVector[float64](g.N)
		idx := make([]int, g.N)
		ones := make([]float64, g.N)
		for i := range idx {
			idx[i], ones[i] = i, 1
		}
		if err := src.Build(idx, ones, graphblas.NoAccum[float64]()); err != nil {
			log.Fatal(err)
		}
		mid, _ := graphblas.NewVector[float64](g.N)
		tmp, _ := graphblas.NewVector[float64](g.N)
		out, _ := graphblas.NewVector[float64](g.N)
		w.a = append(w.a, a)
		w.src = append(w.src, src)
		w.mid = append(w.mid, mid)
		w.tmp = append(w.tmp, tmp)
		w.out = append(w.out, out)
	}
	if err := graphblas.Wait(); err != nil {
		log.Fatal(err)
	}
	return w
}

// flushIndependent enqueues dagChains disjoint MxV→ApplyV→ApplyV pipelines
// and flushes them as one sequence: a (chains × opsPerChain)-node DAG with
// no cross-chain edges.
func (w *dagWorkload) flushIndependent(s graphblas.Semiring[float64, float64, float64], half graphblas.UnaryOp[float64, float64]) error {
	na := graphblas.NoAccum[float64]()
	for k := 0; k < dagChains; k++ {
		if err := graphblas.MxV(w.mid[k], graphblas.NoMaskV, na, s, w.a[k], w.src[k], nil); err != nil {
			return err
		}
		if err := graphblas.ApplyV(w.tmp[k], graphblas.NoMaskV, na, half, w.mid[k], nil); err != nil {
			return err
		}
		if err := graphblas.ApplyV(w.out[k], graphblas.NoMaskV, na, half, w.tmp[k], nil); err != nil {
			return err
		}
	}
	return graphblas.Wait()
}

// flushChained enqueues the same number of operations as one fully
// dependent pipeline on chain 0's objects: every op consumes its
// predecessor's output, so the hazard DAG is a line and offers the
// scheduler no parallelism.
func (w *dagWorkload) flushChained(s graphblas.Semiring[float64, float64, float64], half graphblas.UnaryOp[float64, float64]) error {
	na := graphblas.NoAccum[float64]()
	cur := w.src[0]
	buf := [2]*graphblas.Vector[float64]{w.mid[0], w.tmp[0]}
	ops := dagChains * dagOpsPerChain
	for i := 0; i < ops; i++ {
		nxt := buf[i%2]
		var err error
		if i%dagOpsPerChain == 0 {
			err = graphblas.MxV(nxt, graphblas.NoMaskV, na, s, w.a[0], cur, nil)
		} else {
			err = graphblas.ApplyV(nxt, graphblas.NoMaskV, na, half, cur, nil)
		}
		if err != nil {
			return err
		}
		cur = nxt
	}
	return graphblas.Wait()
}

// runDag is the flush-parallelism sweep: EXPERIMENTS.md E6b.
func runDag(scale, ef int, seed uint64) {
	prevSched := core.CurrentScheduler()
	defer core.SetScheduler(prevSched)
	workers := runtime.NumCPU()
	if workers < 4 {
		// Exercise the scheduler even on small hosts; extra workers beyond
		// the core count cost nothing on independent chains and the JSON
		// records both numbers.
		workers = 4
	}
	prevWorkers := graphblas.SetMaxWorkers(workers)
	defer graphblas.SetMaxWorkers(prevWorkers)
	header("DAG", "E6b: flush parallelism — sequential vs DAG scheduler")
	warnIfSerial("DAG")

	w := buildDagWorkload(scale, ef, seed)
	s := graphblas.PlusTimes[float64]()
	half, err := graphblas.NewUnaryOp("half", func(x float64) float64 { return x / 2 })
	if err != nil {
		log.Fatal(err)
	}

	type bench struct {
		workload string
		flush    func() error
	}
	benches := []bench{
		{"independent", func() error { return w.flushIndependent(s, half) }},
		{"chained", func() error { return w.flushChained(s, half) }},
	}
	// Two configurations per workload: the sequential drain (reference) and
	// the DAG scheduler.
	type config struct {
		name  string
		sched core.Scheduler
	}
	configs := []config{
		{"sequential", core.SchedSequential},
		{"dag", core.SchedDag},
	}

	report := dagReport{
		Generated: time.Now().Format("2006-01-02"),
		Command:   fmt.Sprintf("go run ./cmd/grbench -exp DAG -scale %d -ef %d -seed %d", scale, ef, seed),
		benchEnv:  currentEnv(),
		Scale:     scale,
		EdgeFac:   ef,
		Chains:    dagChains,
		OpsChain:  dagOpsPerChain,
		Note: "speedup_vs_sequential is bounded by min(chains, workers, cores); " +
			"max_width is the process-wide high-water of realized schedule width, " +
			"which proves overlap independently of the host's core count (the " +
			"chained control inherits the high-water of earlier flushes)",
	}

	fmt.Printf("%-12s %-11s %8s %14s %9s %6s %6s %6s\n",
		"workload", "sched", "workers", "ns/flush", "speedup", "nodes", "edges", "width")
	for _, b := range benches {
		var seqNs float64
		for _, cfg := range configs {
			core.SetScheduler(cfg.sched)
			// One untimed warm-up flush per configuration so format
			// conversions and allocator warm-up stay out of the timing.
			if err := b.flush(); err != nil {
				log.Fatal(err)
			}
			before := graphblas.StatsSnapshot()
			d := timeIt(b.flush)
			after := graphblas.StatsSnapshot()
			ns := float64(d.Nanoseconds())
			row := dagRow{
				Workload: b.workload,
				Sched:    cfg.name,
				Workers:  workers,
				Ops:      dagChains * dagOpsPerChain,
				NsPerOp:  ns,
			}
			if cfg.sched == core.SchedSequential {
				seqNs = ns
				row.Speedup = 1
			} else if ns > 0 {
				row.Speedup = seqNs / ns
				// timeIt runs the flush three times; report per-flush DAG
				// shape from the stats delta.
				flushes := after.ParallelFlushes - before.ParallelFlushes
				if flushes > 0 {
					row.DagNodes = (after.DagNodes - before.DagNodes) / flushes
					row.DagEdges = (after.DagEdges - before.DagEdges) / flushes
				}
				row.MaxWidth = after.MaxWidth
				row.ParFlush = flushes
			}
			report.Results = append(report.Results, row)
			fmt.Printf("%-12s %-11s %8d %14.0f %8.2fx %6d %6d %6d\n",
				b.workload, row.Sched, row.Workers, row.NsPerOp, row.Speedup,
				row.DagNodes, row.DagEdges, row.MaxWidth)
		}
	}

	guardStaleBench("BENCH_dataflow.json")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("BENCH_dataflow.json", append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote BENCH_dataflow.json")
}
