package core

import (
	stdctx "context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"graphblas/internal/faults"
	"graphblas/internal/stream"
)

// streamBatch builds a sealed-ready batch from (i, j, v) triples; v < 0
// means delete.
func streamBatch(ts ...[3]int) *stream.Batch[float64] {
	b := stream.NewBatch[float64]()
	for _, t := range ts {
		if t[2] < 0 {
			b.Delete(t[0], t[1])
		} else {
			b.Insert(t[0], t[1], float64(t[2]))
		}
	}
	return b
}

func TestApplyUpdateBatchBasic(t *testing.T) {
	for _, mode := range []Mode{Blocking, NonBlocking} {
		t.Run(mode.String(), func(t *testing.T) {
			withMode(t, mode, func() {
				m, _ := seededMatrix(t) // (0,1)=1 (1,2)=2 (2,3)=3 (3,0)=4
				if _, err := m.SetMergePolicy(stream.Manual()); err != nil {
					t.Fatal(err)
				}
				if err := m.ApplyUpdateBatch(streamBatch([3]int{0, 1, 9}, [3]int{1, 2, -1}, [3]int{2, 2, 5})); err != nil {
					t.Fatalf("ApplyUpdateBatch: %v", err)
				}
				if err := Wait(); err != nil {
					t.Fatalf("Wait: %v", err)
				}
				if n, err := m.NVals(); err != nil || n != 4 {
					t.Fatalf("NVals = %d,%v; want 4", n, err)
				}
				if dn, err := m.DeltaNVals(); err != nil || dn != 3 {
					t.Fatalf("DeltaNVals = %d,%v; want 3 (manual policy keeps the overlay)", dn, err)
				}
				if v, err := m.ExtractElement(0, 1); err != nil || v != 9 {
					t.Fatalf("(0,1) = %v,%v; want overwrite 9", v, err)
				}
				if _, err := m.ExtractElement(1, 2); InfoOf(err) != NoValue {
					t.Fatalf("(1,2) must be deleted, got %v", err)
				}
				if v, err := m.ExtractElement(2, 2); err != nil || v != 5 {
					t.Fatalf("(2,2) = %v,%v; want insert 5", v, err)
				}
				// Explicit compaction publishes a new epoch and empties the overlay.
				e0, _ := m.EpochID()
				if err := m.Compact(); err != nil {
					t.Fatal(err)
				}
				if dn, err := m.DeltaNVals(); err != nil || dn != 0 {
					t.Fatalf("post-Compact DeltaNVals = %d,%v", dn, err)
				}
				if e1, _ := m.EpochID(); e1 != e0+1 {
					t.Fatalf("epoch %d -> %d; want +1", e0, e1)
				}
				if n, _ := m.NVals(); n != 4 {
					t.Fatalf("compaction changed NVals to %d", n)
				}
				// Out-of-range updates are rejected at call time.
				if err := m.ApplyUpdateBatch(streamBatch([3]int{7, 0, 1})); InfoOf(err) != InvalidIndex {
					t.Fatalf("out-of-range batch: %v", err)
				}
				if err := m.ApplyUpdateBatch(nil); InfoOf(err) != InvalidValue {
					t.Fatalf("nil batch: %v", err)
				}
			})
		})
	}
}

// TestStreamPendingOrder interleaves point updates (pending tuples) with
// batches: program order must decide who wins at every position.
func TestStreamPendingOrder(t *testing.T) {
	withMode(t, NonBlocking, func() {
		m, err := NewMatrix[float64](4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.SetMergePolicy(stream.Manual()); err != nil {
			t.Fatal(err)
		}
		_ = m.SetElement(1, 0, 0) // pending before any batch
		if err := m.ApplyUpdateBatch(streamBatch([3]int{0, 0, 2}, [3]int{1, 1, 3})); err != nil {
			t.Fatal(err)
		}
		_ = m.SetElement(4, 1, 1) // point update after the batch wins
		_ = m.RemoveElement(0, 0) // and a point delete of a batch insert
		if err := Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if _, err := m.ExtractElement(0, 0); InfoOf(err) != NoValue {
			t.Fatalf("(0,0): later RemoveElement must win, got %v", err)
		}
		if v, _ := m.ExtractElement(1, 1); v != 4 {
			t.Fatalf("(1,1) = %v; later SetElement must win", v)
		}
	})
}

// TestStreamHazardOrdering: queued readers of the matrix are hazard-ordered
// around a batch under the DAG scheduler — a Dup enqueued before the batch
// sees the old content, one enqueued after sees the new.
func TestStreamHazardOrdering(t *testing.T) {
	withMode(t, NonBlocking, func() {
		prevSched := SetScheduler(SchedDag)
		defer SetScheduler(prevSched)
		m, _ := seededMatrix(t)
		before, err := m.Dup()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ApplyUpdateBatch(streamBatch([3]int{0, 0, 7})); err != nil {
			t.Fatal(err)
		}
		after, err := m.Dup()
		if err != nil {
			t.Fatal(err)
		}
		if err := Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if _, err := before.ExtractElement(0, 0); InfoOf(err) != NoValue {
			t.Fatalf("reader enqueued before the batch saw the update: %v", err)
		}
		if v, err := after.ExtractElement(0, 0); err != nil || v != 7 {
			t.Fatalf("reader enqueued after the batch missed it: %v,%v", v, err)
		}
	})
}

// TestStreamEpochIsolation: a pinned epoch keeps serving its snapshot while
// batches land and merges publish new state.
func TestStreamEpochIsolation(t *testing.T) {
	withMode(t, NonBlocking, func() {
		m, _ := seededMatrix(t)
		if _, err := m.SetMergePolicy(stream.Manual()); err != nil {
			t.Fatal(err)
		}
		if err := m.ApplyUpdateBatch(streamBatch([3]int{2, 2, 5})); err != nil {
			t.Fatal(err)
		}
		e, err := m.PinEpoch()
		if err != nil {
			t.Fatalf("PinEpoch: %v", err)
		}
		if e.NVals() != 5 || e.DeltaNVals() != 1 {
			t.Fatalf("epoch NVals %d DeltaNVals %d; want 5, 1", e.NVals(), e.DeltaNVals())
		}
		// Mutate heavily after the pin: overwrite, delete, compact.
		if err := m.ApplyUpdateBatch(streamBatch([3]int{2, 2, -1}, [3]int{0, 0, 8})); err != nil {
			t.Fatal(err)
		}
		if err := m.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := Wait(); err != nil {
			t.Fatal(err)
		}
		if v, ok := e.Get(2, 2); !ok || v != 5 {
			t.Fatalf("pinned epoch lost its snapshot: (2,2) = %v,%v", v, ok)
		}
		if _, ok := e.Get(0, 0); ok {
			t.Fatalf("pinned epoch sees a post-pin insert")
		}
		if _, err := m.ExtractElement(2, 2); InfoOf(err) != NoValue {
			t.Fatalf("live matrix must see the post-pin delete, got %v", err)
		}
		// A fresh pin reflects the compacted state and the advanced epoch.
		e2, err := m.PinEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if e2.ID() <= e.ID() {
			t.Fatalf("epoch id did not advance: %d -> %d", e.ID(), e2.ID())
		}
		if e2.DeltaNVals() != 0 {
			t.Fatalf("post-compaction pin still has an overlay: %d", e2.DeltaNVals())
		}
	})
}

// TestStreamMergePolicy: the size and age triggers compact automatically and
// advance the epoch.
func TestStreamMergePolicy(t *testing.T) {
	withMode(t, NonBlocking, func() {
		m, err := NewMatrix[float64](64, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.SetMergePolicy(stream.Policy{MaxBatches: 3}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := m.ApplyUpdateBatch(streamBatch([3]int{i, i, i + 1})); err != nil {
				t.Fatal(err)
			}
		}
		if e, err := m.EpochID(); err != nil || e != 1 {
			t.Fatalf("age trigger: epoch %d,%v; want 1", e, err)
		}
		if dn, _ := m.DeltaNVals(); dn != 0 {
			t.Fatalf("age trigger left %d overlay entries", dn)
		}
		if _, err := m.SetMergePolicy(stream.Policy{MaxDeltaNNZ: 4}); err != nil {
			t.Fatal(err)
		}
		if err := m.ApplyUpdateBatch(streamBatch([3]int{9, 1, 1}, [3]int{9, 2, 1}, [3]int{9, 3, 1}, [3]int{9, 4, 1})); err != nil {
			t.Fatal(err)
		}
		if e, err := m.EpochID(); err != nil || e != 2 {
			t.Fatalf("size trigger: epoch %d,%v; want 2", e, err)
		}
		if n, _ := m.NVals(); n != 7 {
			t.Fatalf("NVals = %d, want 7", n)
		}
	})
}

// TestStreamFaultRollback: a fault inside the absorb or merge kernel rolls
// the matrix back to its committed pre-batch content and invalidates it; a
// full overwrite rehabilitates, and a re-applied batch then lands.
func TestStreamFaultRollback(t *testing.T) {
	assertQuiescent(t)
	for _, site := range []string{"stream.kernel.absorb", "stream.kernel.merge", "stream.alloc.delta"} {
		t.Run(site, func(t *testing.T) {
			withMode(t, NonBlocking, func() {
				m, _ := seededMatrix(t)
				// Eager merge so the batch's op body reaches the merge kernel too.
				if _, err := m.SetMergePolicy(stream.Eager()); err != nil {
					t.Fatal(err)
				}
				if err := Wait(); err != nil {
					t.Fatal(err)
				}
				pre := committedTuples(m)
				withFaults(t, 1, faults.Rule{Site: site, Kind: faults.KernelErr, Times: 1})
				if err := m.ApplyUpdateBatch(streamBatch([3]int{0, 0, 7})); err != nil {
					t.Fatal(err)
				}
				if err := Wait(); err == nil {
					t.Fatalf("fault at %s did not surface from Wait", site)
				}
				if got := committedTuples(m); len(got) != len(pre) {
					t.Fatalf("rollback incomplete: %v vs %v", got, pre)
				} else {
					for k, v := range pre {
						if got[k] != v {
							t.Fatalf("rollback corrupted (%d,%d): %v vs %v", k.i, k.j, got[k], v)
						}
					}
				}
				if _, err := m.NVals(); InfoOf(err) != InvalidObject {
					t.Fatalf("faulted matrix must be invalid, got %v", err)
				}
				// Rehabilitate with a full overwrite, then the batch succeeds
				// (the single-shot rule is exhausted).
				if err := m.Clear(); err != nil {
					t.Fatal(err)
				}
				if err := m.ApplyUpdateBatch(streamBatch([3]int{0, 0, 7})); err != nil {
					t.Fatal(err)
				}
				if err := Wait(); err != nil {
					t.Fatalf("post-rehabilitation Wait: %v", err)
				}
				if v, err := m.ExtractElement(0, 0); err != nil || v != 7 {
					t.Fatalf("post-rehabilitation (0,0) = %v,%v", v, err)
				}
			})
		})
	}
}

// TestStreamedEqualsRebuildCore: the differential rebuild oracle at the core
// layer — a random schedule of batches, point updates, and compactions must
// leave the matrix byte-identical to one built from scratch with the final
// content. Runs under every scheduler; `go test -race` covers the
// fault-free concurrency of the flush machinery it drives.
func TestStreamedEqualsRebuildCore(t *testing.T) {
	for _, sched := range []Scheduler{SchedSequential, SchedDag} {
		t.Run(sched.String(), func(t *testing.T) {
			withMode(t, NonBlocking, func() {
				prevSched := SetScheduler(sched)
				defer SetScheduler(prevSched)
				rng := rand.New(rand.NewSource(99))
				const n = 40
				m, err := NewMatrix[float64](n, n)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.SetMergePolicy(stream.Policy{MaxDeltaNNZ: 50}); err != nil {
					t.Fatal(err)
				}
				model := map[key]float64{}
				for step := 0; step < 30; step++ {
					b := stream.NewBatch[float64]()
					for k := 0; k < 25; k++ {
						i, j := rng.Intn(n), rng.Intn(n)
						if rng.Float64() < 0.3 {
							b.Delete(i, j)
							delete(model, key{i, j})
						} else {
							v := float64(rng.Intn(99) + 1)
							b.Insert(i, j, v)
							model[key{i, j}] = v
						}
					}
					if err := m.ApplyUpdateBatch(b); err != nil {
						t.Fatal(err)
					}
					if step%7 == 3 { // interleaved point updates
						i, j := rng.Intn(n), rng.Intn(n)
						v := float64(rng.Intn(99) + 1)
						if err := m.SetElement(v, i, j); err != nil {
							t.Fatal(err)
						}
						model[key{i, j}] = v
					}
					if step%11 == 5 {
						if err := m.Compact(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := Wait(); err != nil {
					t.Fatalf("Wait: %v", err)
				}

				rebuilt, err := NewMatrix[float64](n, n)
				if err != nil {
					t.Fatal(err)
				}
				var is, js []int
				var vs []float64
				for k, v := range model {
					is, js, vs = append(is, k.i), append(js, k.j), append(vs, v)
				}
				if err := rebuilt.Build(is, js, vs, NoAccum[float64]()); err != nil {
					t.Fatal(err)
				}

				gi, gj, gv, err := m.ExtractTuples()
				if err != nil {
					t.Fatal(err)
				}
				ri, rj, rv, err := rebuilt.ExtractTuples()
				if err != nil {
					t.Fatal(err)
				}
				if len(gi) != len(ri) {
					t.Fatalf("nnz %d vs rebuilt %d", len(gi), len(ri))
				}
				for k := range gi {
					if gi[k] != ri[k] || gj[k] != rj[k] || gv[k] != rv[k] {
						t.Fatalf("tuple %d: (%d,%d,%v) vs rebuilt (%d,%d,%v)",
							k, gi[k], gj[k], gv[k], ri[k], rj[k], rv[k])
					}
				}
			})
		})
	}
}

// TestIngestDuringFlushRace: update batches land on a matrix while another
// goroutine keeps flushing reads of the same matrix through the scheduler —
// the engine-internal interleavings the race detector must find clean. Runs
// at GOMAXPROCS 1 and 4 under both flush schedulers.
func TestIngestDuringFlushRace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		sched Scheduler
	}{
		{"Sequential1", 1, SchedSequential},
		{"Sequential4", 4, SchedSequential},
		{"Dag1", 1, SchedDag},
		{"Dag4", 4, SchedDag},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			withMode(t, NonBlocking, func() {
				prevSched := SetScheduler(tc.sched)
				defer SetScheduler(prevSched)
				prevElide := SetElision(false)
				defer SetElision(prevElide)
				const n = 32
				m, err := NewMatrix[float64](n, n)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.SetMergePolicy(stream.Policy{MaxDeltaNNZ: 64}); err != nil {
					t.Fatal(err)
				}
				s := plusTimesF64(t)
				src, _ := NewVector[float64](n)
				for i := 0; i < n; i++ {
					_ = src.SetElement(1, i)
				}
				out, _ := NewVector[float64](n)
				done := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						// DAG flushes that read m while batches land on it.
						_ = MxV(out, NoMaskV, NoAccum[float64](), s, m, src, nil)
						_ = Wait()
					}
				}()
				rng := rand.New(rand.NewSource(7))
				for step := 0; step < 400; step++ {
					b := stream.NewBatch[float64]()
					for k := 0; k < 8; k++ {
						if rng.Float64() < 0.25 {
							b.Delete(rng.Intn(n), rng.Intn(n))
						} else {
							b.Insert(rng.Intn(n), rng.Intn(n), 1)
						}
					}
					if err := m.ApplyUpdateBatch(b); err != nil {
						t.Error(err)
						break
					}
					if step%50 == 25 {
						if err := m.Compact(); err != nil {
							t.Error(err)
							break
						}
					}
				}
				close(done)
				wg.Wait()
				if err := Wait(); err != nil {
					t.Fatalf("final Wait: %v", err)
				}
				if _, err := m.NVals(); err != nil {
					t.Fatalf("NVals after race: %v", err)
				}
			})
		})
	}
}

// TestServeDuringIngestRace is the serving-layer interleaving: one goroutine
// pins epochs and walks their tuples (the snapshot path), another issues
// queries whose flushes carry short deadlines (so WaitContext cancellation
// races the absorbs), while the main goroutine churns the matrix with update
// batches and compactions. The writer re-applies after any abandoned absorb —
// the at-least-once discipline the serve engine uses — so the store must end
// the run valid and readable. Runs at GOMAXPROCS 1 and 4 under both flush
// schedulers; the race detector must find every interleaving clean.
func TestServeDuringIngestRace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		sched Scheduler
	}{
		{"Sequential1", 1, SchedSequential},
		{"Sequential4", 4, SchedSequential},
		{"Dag1", 1, SchedDag},
		{"Dag4", 4, SchedDag},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			withMode(t, NonBlocking, func() {
				prevSched := SetScheduler(tc.sched)
				defer SetScheduler(prevSched)
				prevElide := SetElision(false)
				defer SetElision(prevElide)
				const n = 32
				m, err := NewMatrix[float64](n, n)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.SetMergePolicy(stream.Manual()); err != nil {
					t.Fatal(err)
				}
				s := plusTimesF64(t)
				src, _ := NewVector[float64](n)
				for i := 0; i < n; i++ {
					_ = src.SetElement(1, i)
				}
				done := make(chan struct{})
				var wg sync.WaitGroup

				// Snapshot path: pin epochs and walk their tuples.
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						ep, err := m.PinEpoch()
						if err != nil {
							continue // poisoned mid-recovery; the writer heals it
						}
						ri, _, _ := ep.Tuples()
						_ = len(ri)
						_, _ = ep.NVals(), ep.DeltaNVals()
					}
				}()

				// Query path: flushes under expiring deadlines, so WaitContext
				// cancellation races the writer's absorbs.
				wg.Add(1)
				go func() {
					defer wg.Done()
					out, _ := NewVector[float64](n)
					i := 0
					for {
						select {
						case <-done:
							return
						default:
						}
						_ = MxV(out, NoMaskV, NoAccum[float64](), s, m, src, nil)
						i++
						if i%3 == 0 {
							ctx, cancel := stdctx.WithCancel(stdctx.Background())
							cancel()
							_ = WaitContext(ctx)
						} else {
							_ = WaitContext(stdctx.Background())
						}
					}
				}()

				// Writer: batches plus compactions, re-applying after any
				// abandoned absorb (batches are last-wins idempotent).
				rng := rand.New(rand.NewSource(11))
				for step := 0; step < 300; step++ {
					b := stream.NewBatch[float64]()
					for k := 0; k < 8; k++ {
						if rng.Float64() < 0.25 {
							b.Delete(rng.Intn(n), rng.Intn(n))
						} else {
							b.Insert(rng.Intn(n), rng.Intn(n), 1)
						}
					}
					for attempt := 0; attempt < 8; attempt++ {
						if err := m.ApplyUpdateBatch(b); err == nil {
							if m.Wait() == nil {
								break
							}
						}
						if err := m.Revalidate(); err != nil {
							t.Errorf("Revalidate: %v", err)
							break
						}
					}
					if step%60 == 30 {
						_ = m.Compact() // may fail over a racing cancel; next loop heals
					}
				}
				close(done)
				wg.Wait()
				if err := m.Revalidate(); err != nil {
					t.Fatalf("final Revalidate: %v", err)
				}
				if _, err := m.NVals(); err != nil {
					t.Fatalf("NVals after race: %v", err)
				}
			})
		})
	}
}
