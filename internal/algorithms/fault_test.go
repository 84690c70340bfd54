package algorithms

import (
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/faults"
	"graphblas/internal/format"
	"graphblas/internal/leakcheck"
	"graphblas/internal/refalgo"
)

// TestBFSLevels_UnderKernelFaults: with the adjacency pinned to the
// hypersparse layout and every hypersparse MxV kernel call failing by
// injection, a whole BFS still completes with answers identical to the
// queue-based reference — each failed fast path is transparently re-executed
// on the CSR path — and the retries are visible in the engine stats.
func TestBFSLevels_UnderKernelFaults(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	t.Cleanup(faults.Disable)
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			adj := refalgo.NewAdjacency(g)
			a := boolMatrix(t, g)
			if err := a.SetFormat(format.HyperKind); err != nil {
				t.Fatalf("SetFormat: %v", err)
			}
			// The glob covers both hypersparse MxV kernels — the dot kernel at
			// "format.kernel.hyper.mxv" and the push kernel at
			// "format.kernel.hyper.mxv.push" — which previously shared one
			// site literal.
			faults.Configure(1, faults.Rule{Site: "format.kernel.hyper.mxv*", Kind: faults.KernelErr})
			base := core.StatsSnapshot().KernelRetries
			want := refalgo.BFSLevels(adj, 0)
			levels, err := BFSLevels(a, 0)
			if err != nil {
				t.Fatalf("BFSLevels under injection: %v", err)
			}
			faults.Disable()
			idx, val, err := levels.ExtractTuples()
			if err != nil {
				t.Fatalf("ExtractTuples: %v", err)
			}
			got := make([]int, g.N)
			for i := range got {
				got[i] = -1
			}
			for k := range idx {
				got[idx[k]] = int(val[k])
			}
			for v := 0; v < g.N; v++ {
				if got[v] != want[v] {
					t.Errorf("level[%d]: got %d want %d", v, got[v], want[v])
				}
			}
			if st := core.StatsSnapshot(); st.KernelRetries == base {
				t.Fatalf("no kernel retries recorded: %+v", st)
			}
		})
	}
}

// TestBFSLevels_UnderAllocGovernor: with the adjacency pinned hypersparse
// but the allocation budget starved below even the row-index arrays, the
// layout conversion itself is denied as OutOfMemory on every attempt; BFS
// still matches the reference, running entirely on the CSR path.
func TestBFSLevels_UnderAllocGovernor(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	g := testGraphs()["er200"]
	adj := refalgo.NewAdjacency(g)
	a := boolMatrix(t, g)
	if err := a.SetFormat(format.HyperKind); err != nil {
		t.Fatalf("SetFormat: %v", err)
	}
	prev := faults.SetAllocBudget(512) // er200 hyper conversion wants 200*16 bytes
	t.Cleanup(func() { faults.SetAllocBudget(prev) })
	base := faults.InjectedCount()
	want := refalgo.BFSLevels(adj, 0)
	levels, err := BFSLevels(a, 0)
	if err != nil {
		t.Fatalf("BFSLevels under governor: %v", err)
	}
	faults.SetAllocBudget(0)
	if faults.InjectedCount() == base {
		t.Fatal("governor never denied the pinned hypersparse conversion")
	}
	idx, val, err := levels.ExtractTuples()
	if err != nil {
		t.Fatalf("ExtractTuples: %v", err)
	}
	got := make([]int, g.N)
	for i := range got {
		got[i] = -1
	}
	for k := range idx {
		got[idx[k]] = int(val[k])
	}
	for v := 0; v < g.N; v++ {
		if got[v] != want[v] {
			t.Errorf("level[%d]: got %d want %d", v, got[v], want[v])
		}
	}
}
