package main

// The serving sweep (EXPERIMENTS.md E11, BENCH_serving.json): the grbserve
// stack — admission control, per-request deadlines, retries, degradation —
// driven in-process by the seed-deterministic load generator under four
// regimes: nominal load, admission overload, tight deadlines, and injected
// kernel faults. Outcome counts come from the responses themselves (status
// codes and resilience headers), so rows are comparable across runs; only
// the latency columns are machine-dependent, which is what benchEnv stamps.

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"graphblas/internal/faults"
	"graphblas/internal/generate"
	"graphblas/internal/serve"
)

type serveRow struct {
	Config  string `json:"config"`
	Workers int    `json:"workers"`
	serve.LoadResult
}

type serveReport struct {
	Generated string `json:"generated"`
	Command   string `json:"command"`
	benchEnv
	Scale    int        `json:"scale"`
	EdgeFac  int        `json:"edge_factor"`
	Seed     uint64     `json:"seed"`
	Requests int        `json:"requests_per_row"`
	Note     string     `json:"note"`
	Rows     []serveRow `json:"rows"`
}

// serveStack builds a fresh one-shard store and server seeded with the
// workload graph, so every row starts from an identical store.
func serveStack(g *generate.Graph, seed uint64) *serve.Server {
	return serve.NewServer(serve.Options{
		Backend:       shardBackend(g, 1),
		MaxConcurrent: 4,
		RetrySeed:     seed,
	})
}

func runServe(scale, ef int, seed uint64) {
	header("SERVE", fmt.Sprintf("E11: fault-tolerant serving under load, RMAT scale %d", scale))
	g := generate.RMAT(scale, ef, seed).Dedup(true)
	requests := serveRequests
	fmt.Printf("  workload: %d vertices, %d edges, %d requests per row\n", g.N, len(g.Edges), requests)

	report := serveReport{
		Generated: time.Now().Format("2006-01-02"),
		Command:   fmt.Sprintf("go run ./cmd/grbench -exp SERVE -scale %d -ef %d -seed %d -requests %d", scale, ef, seed, requests),
		benchEnv:  currentEnv(),
		Scale:     scale,
		EdgeFac:   ef,
		Seed:      seed,
		Requests:  requests,
		Note: "in-process drive (httptest, no sockets); each row uses a fresh one-shard store " +
			"seeded with the same graph; counts are from response status codes and " +
			"resilience headers, so shed/degraded/stale/retried are seed-deterministic " +
			"up to goroutine interleaving while latencies are machine-dependent; the " +
			"faults row injects seeded kernel faults on the query sites only",
	}

	base := serve.LoadSpec{
		Seed:        seed,
		Requests:    requests,
		N:           g.N,
		KHopFrac:    0.6,
		PPRFrac:     0.3,
		IngestEvery: 20,
		BatchSize:   16,
	}
	regimes := []struct {
		name    string
		workers int
		timeout time.Duration
		chaos   bool
	}{
		{"nominal", 4, 0, false},
		{"overload", 16, 0, false},
		{"tight-deadline", 8, 2 * time.Millisecond, false},
		{"faults", 8, 0, true},
	}

	fmt.Printf("  %-15s %8s %8s %6s %6s %6s %6s %6s %9s %9s %9s\n",
		"config", "ok", "shed", "t/o", "err", "stale", "degr", "retry", "p50", "p99", "qps")
	for _, r := range regimes {
		s := serveStack(g, seed)
		if r.chaos {
			faults.Configure(int64(seed),
				faults.Rule{Site: "VxM", Kind: faults.KernelErr, Prob: 0.05},
				faults.Rule{Site: "ApplyV", Kind: faults.OOM, Prob: 0.03},
				faults.Rule{Site: "MxM", Kind: faults.OOM, Prob: 0.02},
			)
		}
		spec := base
		spec.Workers = r.workers
		spec.Timeout = r.timeout
		res := serve.RunLoad(s, spec)
		faults.Disable()
		report.Rows = append(report.Rows, serveRow{Config: r.name, Workers: r.workers, LoadResult: res})
		fmt.Printf("  %-15s %8d %8d %6d %6d %6d %6d %6d %8.2fms %8.2fms %9.0f\n",
			r.name, res.OK, res.Shed, res.Timeout, res.Errors, res.Stale, res.Degraded, res.Retried,
			res.P50Ms, res.P99Ms, res.QPS)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serving.json", append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote BENCH_serving.json")
}
