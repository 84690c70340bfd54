package algorithms

import (
	"runtime"
	"runtime/debug"
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/generate"
	"graphblas/internal/obs"
)

// bytesPerCall is the heap bytes one call of run allocates in the steady
// state: two warm-up calls fill the pool's shelves and the adjacency's
// cached transpose, then the mean over calls is taken.
func bytesPerCall(t *testing.T, run func() error) float64 {
	t.Helper()
	const calls = 8
	for k := 0; k < 2; k++ {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < calls; k++ {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / calls
}

// TestAlgorithmsAllocBudget pins the bytes one call of BFSLevels, SSSP,
// PageRank, ConnectedComponents and TriangleCount allocates on a fixed
// RMAT-10 graph in blocking mode at one worker, with about 10 % headroom. A
// fixed-point test that copies the state out of the engine, or a work
// vector or matrix dropped instead of freed, shows here as a budget
// overrun. Results are kept, not freed, as a caller keeps them.
func TestAlgorithmsAllocBudget(t *testing.T) {
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)
	// A collection drops the value arrays shelved weakly between calls; the
	// budget is the algorithms' own allocations, so none runs meanwhile.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := generate.RMAT(10, 8, 5).Dedup(true)
	sym := g.Symmetrize().Dedup(true)
	inMode(t, core.Blocking, 1, func() {
		pattern, weighted, undirected := boolMatrix(t, g), floatMatrix(t, g), boolMatrix(t, sym)
		cases := []struct {
			name   string
			budget float64 // bytes per call
			run    func() error
		}{
			// Measured: BFSLevels 15.4 kB, SSSP 21.1 kB, PageRank 19.6 kB,
			// CC 10.0 kB, with the executor taking each rollback into the
			// output object's own slot; the extract-and-compare loops and
			// dropped work vectors cost 64.1, 88.3, 94.6 and 142.0 kB.
			// TriangleCount 1.7 kB: its L and C freed, their arrays come
			// back to the next call's select and masked product; dropped,
			// they cost 238.4 kB.
			{"BFSLevels", 17000, func() error { _, err := BFSLevels(pattern, 1); return err }},
			{"SSSP", 23200, func() error { _, err := SSSP(weighted, 1); return err }},
			{"PageRank", 21500, func() error { _, _, err := PageRank(weighted, 0.85, 0, 10); return err }},
			{"CC", 11000, func() error { _, err := ConnectedComponents(undirected); return err }},
			{"TriangleCount", 1850, func() error { _, err := TriangleCount(undirected); return err }},
		}
		for _, tc := range cases {
			got := bytesPerCall(t, tc.run)
			t.Logf("%s: %.0f bytes per call, budget %.0f", tc.name, got, tc.budget)
			if got > tc.budget {
				t.Errorf("%s allocates %.0f bytes per call, budget %.0f — an allocation the algorithm did not make before needs pooling or a reviewed budget bump", tc.name, got, tc.budget)
			}
		}
	})
}
