package shard_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/serve"
	"graphblas/internal/shard"
	"graphblas/internal/stream"
)

// TestShardedIngestDuringQueryRace hammers one sharded store from a writer
// goroutine (streamed batches through the all-shards-or-none commit) while
// reader goroutines pin views and run the scatter-gather queries — the
// coordinator-level interleavings (wseq seqlock, snapshot cache, per-shard
// engine queues) the race detector must find clean. Runs at GOMAXPROCS 1
// and 4 under both flush schedulers; shard engines inherit the scheduler
// active at store creation.
func TestShardedIngestDuringQueryRace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		sched core.Scheduler
	}{
		{"Sequential1", 1, core.SchedSequential},
		{"Sequential4", 4, core.SchedSequential},
		{"Dag1", 1, core.SchedDag},
		{"Dag4", 4, core.SchedDag},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			prevSched := core.SetScheduler(tc.sched)
			defer core.SetScheduler(prevSched)

			const n = 64
			store := newSharded(t, n, 4)
			seed := stream.NewBatch[float64]()
			for i := 0; i < n-1; i++ {
				seed.Insert(i, i+1, 1)
			}
			if err := store.Ingest(seed); err != nil {
				t.Fatal(err)
			}
			// Prime the composed-snapshot cache: with a last-good snapshot in
			// place, a composition torn by the concurrent writer degrades to
			// the stale fallback instead of erroring out.
			be := serve.NewShardedBackend(store)
			if _, _, err := be.View(context.Background()); err != nil {
				t.Fatal(err)
			}

			const (
				writes  = 30
				readers = 3
			)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			errCh := make(chan error, readers+1)

			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(stop)
				for w := 0; w < writes; w++ {
					b := stream.NewBatch[float64]()
					for k := 0; k < 8; k++ {
						i := (w*13 + k*7) % n
						j := (w*5 + k*11) % n
						if (w+k)%5 == 0 {
							b.Delete(i, j)
						} else {
							b.Insert(i, j, float64(k+1))
						}
					}
					if err := store.Ingest(b); err != nil && !errors.Is(err, shard.ErrBackpressure) {
						errCh <- err
						return
					}
				}
			}()

			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					src := (r * 17) % n
					for {
						select {
						case <-stop:
							return
						default:
						}
						v, _, err := be.View(context.Background())
						if err != nil {
							errCh <- err
							return
						}
						if _, err := v.KHop(context.Background(), src, 2); err != nil {
							errCh <- err
							return
						}
						if _, err := v.Degree(context.Background(), src); err != nil {
							errCh <- err
							return
						}
						snap, _, err := store.Snapshot(context.Background())
						if err != nil {
							errCh <- err
							return
						}
						if _, _, _, err := snap.Tuples(); err != nil {
							errCh <- err
							return
						}
					}
				}(r)
			}

			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Errorf("concurrent op: %v", err)
			}
			if err := store.Drain(context.Background()); err != nil {
				t.Fatalf("drain: %v", err)
			}
		})
	}
}
