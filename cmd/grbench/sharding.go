package main

// The sharding sweep (EXPERIMENTS.md E12, BENCH_sharding.json): the same
// seeded serving load driven against the row-partitioned multi-engine store
// at 1, 2, 4, and 8 shards. Shard count 1 is the same store with nothing to
// exchange — its VxM is the engine's own, and the differential tests prove
// the scatter-gather rows tuple-identical to it — so its row is the baseline
// every other row is judged against. Each row also times sharded streaming
// ingest directly (ns/edge through the all-shards-or-none commit, bypassing
// HTTP) since the serving mix only exercises writes incidentally.
// Scatter-gather fan-out and per-shard flush run on goroutines, so QPS/latency
// scaling is parallelism-sensitive: benchEnv stamps the hardware and
// warnIfSerial flags single-core runs where scaling cannot physically appear.

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"graphblas/internal/generate"
	"graphblas/internal/serve"
	"graphblas/internal/shard"
	"graphblas/internal/stream"
)

type shardRow struct {
	Shards        int     `json:"shards"`
	IngestNsEdge  float64 `json:"ingest_ns_per_edge"`
	IngestBatches int     `json:"ingest_batches"`
	serve.LoadResult
}

type shardReport struct {
	Generated string `json:"generated"`
	Command   string `json:"command"`
	benchEnv
	Scale    int        `json:"scale"`
	EdgeFac  int        `json:"edge_factor"`
	Seed     uint64     `json:"seed"`
	Requests int        `json:"requests_per_row"`
	Note     string     `json:"note"`
	Rows     []shardRow `json:"rows"`
}

// shardBackend builds a fresh backend preloaded with the workload graph.
func shardBackend(g *generate.Graph, shards int) serve.Backend {
	b := stream.NewBatch[float64]()
	for _, e := range g.Edges {
		b.Insert(e.Src, e.Dst, 1)
	}
	st, err := shard.NewStore(shard.Config{N: g.N, Shards: shards})
	if err != nil {
		log.Fatal(err)
	}
	if err := st.Ingest(b); err != nil {
		log.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		log.Fatal(err)
	}
	return serve.NewShardedBackend(st)
}

// timeShardedIngest streams seeded batches through a fresh backend and
// returns mean ns per routed edge across the acknowledged commits.
func timeShardedIngest(g *generate.Graph, shards int, seed uint64, batches, batchSize int) float64 {
	be := shardBackend(g, shards)
	gen := generate.RMAT(7, 8, seed+uint64(shards)).Dedup(true)
	edges := 0
	t0 := time.Now()
	for bi := 0; bi < batches; bi++ {
		b := stream.NewBatch[float64]()
		for k := 0; k < batchSize; k++ {
			e := gen.Edges[(bi*batchSize+k)%len(gen.Edges)]
			b.Insert(e.Src%g.N, e.Dst%g.N, 1)
			edges++
		}
		if err := be.Ingest(b); err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(t0)
	return float64(elapsed.Nanoseconds()) / float64(edges)
}

func runShard(scale, ef int, seed uint64) {
	header("SHARD", fmt.Sprintf("E12: horizontal sharding scatter-gather scaling, RMAT scale %d", scale))
	warnIfSerial("SHARD")
	g := generate.RMAT(scale, ef, seed).Dedup(true)
	requests := serveRequests
	fmt.Printf("  workload: %d vertices, %d edges, %d requests per row\n", g.N, len(g.Edges), requests)

	const (
		ingestBatches = 64
		batchSize     = 64
	)
	report := shardReport{
		Generated: time.Now().Format("2006-01-02"),
		Command:   fmt.Sprintf("go run ./cmd/grbench -exp SHARD -scale %d -ef %d -seed %d -requests %d", scale, ef, seed, requests),
		benchEnv:  currentEnv(),
		Scale:     scale,
		EdgeFac:   ef,
		Seed:      seed,
		Requests:  requests,
		Note: "in-process drive (httptest, no sockets); every row is the same store, " +
			"shards=1 with the engine's own VxM and the others with the scatter-gather; " +
			"the query mix and ingest batches are seed-deterministic, and the " +
			"differential suite proves every row returns tuple-identical results, so only " +
			"latency/QPS/ns-per-edge columns vary; scatter-gather scaling requires real cores " +
			"(see benchEnv) — on a serial host the fan-out rows measure coordination overhead only",
	}

	spec := serve.LoadSpec{
		Seed:        seed,
		Requests:    requests,
		Workers:     8,
		N:           g.N,
		KHopFrac:    0.6,
		PPRFrac:     0.3,
		IngestEvery: 20,
		BatchSize:   16,
	}

	fmt.Printf("  %-8s %8s %8s %6s %9s %9s %9s %12s\n",
		"shards", "ok", "shed", "err", "p50", "p99", "qps", "ns/edge")
	for _, shards := range []int{1, 2, 4, 8} {
		be := shardBackend(g, shards)
		s := serve.NewServer(serve.Options{
			Backend:       be,
			MaxConcurrent: 8,
			RetrySeed:     seed,
		})
		res := serve.RunLoad(s, spec)
		nsEdge := timeShardedIngest(g, shards, seed, ingestBatches, batchSize)
		report.Rows = append(report.Rows, shardRow{
			Shards:        shards,
			IngestNsEdge:  nsEdge,
			IngestBatches: ingestBatches,
			LoadResult:    res,
		})
		fmt.Printf("  %-8d %8d %8d %6d %8.2fms %8.2fms %9.0f %12.0f\n",
			shards, res.OK, res.Shed, res.Errors, res.P50Ms, res.P99Ms, res.QPS, nsEdge)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sharding.json", append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote BENCH_sharding.json")
}
