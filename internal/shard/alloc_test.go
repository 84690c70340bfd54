package shard_test

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/generate"
	"graphblas/internal/obs"
)

// TestShardedVxMAllocBudget: with the pool's shelves warm, a sharded VxM of
// a full vector allocates a bounded number of small objects — vector
// handles, the deferred operation, a goroutine per busy shard — and no
// bytes per entry: the input is dealt into recycled arrays, each shard's
// vector adopts its slice, the results move out, and out adopts their
// sum. Copying tuples across the engines' boundary (ExtractTuples, Build)
// costs several words per entry and fails here: on this 4096-vertex graph
// a call allocated 160 to 370 kB that way.
func TestShardedVxMAllocBudget(t *testing.T) {
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)
	// A collection drops the value arrays shelved weakly between calls; the
	// budget is the product's own allocations, so none runs meanwhile.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := generate.RMAT(12, 8, 42).Dedup(true)
	ctx := context.Background()
	for _, strat := range strategies {
		for _, shards := range shardCounts {
			t.Run(fmt.Sprintf("%v/%d", strat, shards), func(t *testing.T) {
				store := newSharded(t, g.N, shards, strat, edgeBatch(g))
				snap, _, _, _ := snapshotTuples(t, store)
				in := fullVector(t, g.N)
				out, err := core.NewVector[float64](g.N)
				if err != nil {
					t.Fatal(err)
				}
				run := func() {
					if err := snap.VxM(ctx, out, in); err != nil {
						t.Fatal(err)
					}
				}
				for k := 0; k < 3; k++ {
					run()
				}
				const calls = 16
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for k := 0; k < calls; k++ {
					run()
				}
				runtime.ReadMemStats(&after)
				allocs := float64(after.Mallocs-before.Mallocs) / calls
				bytes := float64(after.TotalAlloc-before.TotalAlloc) / calls
				t.Logf("%.1f allocations, %.0f bytes per call over %d entries", allocs, bytes, g.N)
				// Measured: 4 + 12 allocations and about 1.1 kB per shard.
				if limit := float64(8 + 14*shards); allocs > limit {
					t.Errorf("a sharded VxM makes %.1f allocations, budget %.0f", allocs, limit)
				}
				if limit := float64(512 + 1536*shards); bytes > limit {
					t.Errorf("a sharded VxM allocates %.0f bytes per call over %d entries, budget %.0f — an allocation per entry needs pooling", bytes, g.N, limit)
				}
				if err := core.FreeAll(in, out); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// fullVector is the vector of size n storing 1/(i+1) at every i.
func fullVector(t *testing.T, n int) *core.Vector[float64] {
	t.Helper()
	idx, val := make([]int, n), make([]float64, n)
	for i := range idx {
		idx[i], val[i] = i, 1/float64(i+1)
	}
	v, err := core.NewVector[float64](n)
	if err == nil {
		err = v.Build(idx, val, core.NoAccum[float64]())
	}
	if err != nil {
		t.Fatal(err)
	}
	return v
}
