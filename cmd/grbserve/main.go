// Command grbserve is the fault-tolerant graph query server: HTTP endpoints
// for k-hop, personalized PageRank, and triangle statistics over a live
// streaming GraphBLAS store, with per-request deadlines threaded into the
// engine's flush scheduler, admission control with load shedding, seeded
// retry of transient faults, a circuit breaker around compaction, and
// graceful drain on SIGINT/SIGTERM.
//
// The store is row-partitioned across -shards independent engine instances
// (one nonblocking queue, scheduler, and flush lock each; default 1). With
// more than one, queries run scatter-gather across the shards; ingest commits
// all-shards-or-none at any count, behind the same endpoints and resilience
// ladder.
//
//	grbserve -addr :8080 -scale 11
//	grbserve -addr :8080 -scale 11 -shards 4
//	curl 'localhost:8080/query/khop?src=0&k=2&timeout=50ms'
//	curl 'localhost:8080/query/ppr?src=0&k=10'
//	curl 'localhost:8080/query/degree?v=0'
//	curl 'localhost:8080/stats'
//	curl -XPOST -d '{"inserts":[[1,2,1]],"deletes":[[3,4]]}' localhost:8080/ingest
//	curl 'localhost:8080/healthz'   # liveness: shards, version, breaker, queue
//	curl 'localhost:8080/readyz'    # readiness: 503 while draining
//	curl 'localhost:8080/metrics'   # Prometheus text exposition
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphblas"
	"graphblas/internal/generate"
	"graphblas/internal/serve"
	"graphblas/internal/shard"
	"graphblas/internal/stream"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.Int("scale", 10, "RMAT scale of the preloaded graph (vertex space is 2^scale)")
	ef := flag.Int("ef", 8, "RMAT edge factor of the preloaded graph")
	seed := flag.Uint64("seed", 42, "graph generator and retry-jitter seed")
	empty := flag.Bool("empty", false, "start with an empty graph (vertex space still 2^scale)")
	shards := flag.Int("shards", 1, "row-partition the store across this many engine instances")
	maxConc := flag.Int("max-concurrent", 4, "simultaneously executing requests")
	maxQueue := flag.Int("max-queue", 0, "admission queue watermark (0: 2x max-concurrent)")
	timeout := flag.Duration("timeout", 2*time.Second, "default per-request deadline")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	flag.Parse()

	if err := graphblas.Init(graphblas.NonBlocking); err != nil {
		log.Fatal(err)
	}
	defer graphblas.Finalize()

	g := generate.RMAT(*scale, *ef, *seed).Dedup(true)
	var preload *stream.Batch[float64]
	if !*empty {
		preload = stream.NewBatch[float64]()
		for _, e := range g.Edges {
			preload.Insert(e.Src, e.Dst, 1)
		}
	}

	st, err := shard.NewStore(shard.Config{N: g.N, Shards: *shards})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("store: %d shards (row blocks)", st.ShardCount())
	if preload != nil {
		if err := st.Ingest(preload); err != nil {
			log.Fatal(err)
		}
		if err := st.Compact(); err != nil {
			log.Fatal(err)
		}
		log.Printf("preloaded RMAT scale %d: %d vertices, %d edges", *scale, g.N, len(g.Edges))
	}

	s := serve.NewServer(serve.Options{
		Backend:        serve.NewShardedBackend(st),
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *timeout,
		RetrySeed:      *seed,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s}

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		defer close(done)
		sig := <-sigs
		log.Printf("received %v: draining (budget %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Order matters: flip readiness and stop admitting first, so the
		// listener's remaining in-flight requests are the only work left,
		// then close the listener, then flush the engine.
		if err := s.Shutdown(ctx); err != nil {
			log.Printf("engine drain: %v", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}()

	log.Printf("grbserve listening on %s (shards=%d, max-concurrent=%d, timeout=%v)", *addr, *shards, *maxConc, *timeout)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	log.Printf("drained clean")
}
