package algorithms

import (
	"reflect"
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/faults"
	"graphblas/internal/generate"
	"graphblas/internal/leakcheck"
	"graphblas/internal/obs"
	"graphblas/internal/refalgo"
)

// pullingGraph has enough edges (about 4 000) that PageRank's sweep, a
// VxM with a dense share vector, pulls over the adjacency's transpose.
func pullingGraph() *generate.Graph { return generate.ErdosRenyiGnm(500, 4000, 1).Dedup(true) }

// pageRankTuples runs PageRank on a fresh adjacency of g and returns the
// rank vector's tuples.
func pageRankTuples(t *testing.T, g *generate.Graph) ([]int, []float64) {
	t.Helper()
	rank, _, err := PageRank(floatMatrix(t, g), 0.85, 1e-10, 50)
	if err != nil {
		t.Fatalf("PageRank: %v", err)
	}
	idx, val, err := rank.ExtractTuples()
	if err != nil {
		t.Fatalf("ExtractTuples: %v", err)
	}
	return idx, val
}

// bfsLevels runs BFSLevels from vertex 0 on a fresh adjacency of g and
// returns each vertex's level, -1 where unreached.
func bfsLevels(t *testing.T, g *generate.Graph) []int {
	t.Helper()
	levels, err := BFSLevels(boolMatrix(t, g), 0)
	if err != nil {
		t.Fatalf("BFSLevels: %v", err)
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
	return got
}

// bfsPullingGraph is dense enough (about 50 000 edges) that BFS's second
// level, a frontier of over 90 % of the vertices, pulls over the adjacency's
// transpose.
func bfsPullingGraph() *generate.Graph { return generate.ErdosRenyiGnp(1000, 0.05, 4).Dedup(true) }

// pulls counts the scatter products the engine has run as a pull.
func pulls() int64 { return obs.MxVDirection.With("pull").Value() }

// TestBFSLevels_UnderKernelFaults: with every pull failing by injection, a
// whole BFS still completes with levels identical to the queue-based
// reference — each failed pull is transparently re-executed as a push — and
// a BFS whose fault-free run pulled records one retry per pull. The small
// graphs never pull; gnp1000's second level does.
func TestBFSLevels_UnderKernelFaults(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	t.Cleanup(faults.Disable)
	graphs := testGraphs()
	graphs["gnp1000"] = bfsPullingGraph()
	pulled := false
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			want := refalgo.BFSLevels(refalgo.NewAdjacency(g), 0)
			before := pulls()
			if got := bfsLevels(t, g); !reflect.DeepEqual(got, want) {
				t.Fatalf("fault-free levels differ from the reference: %v want %v", got, want)
			}
			ran := pulls() - before
			pulled = pulled || ran > 0
			faults.Configure(1, faults.Rule{Site: "format.kernel.csr.pull", Kind: faults.KernelErr})
			base := core.StatsSnapshot().KernelRetries
			got := bfsLevels(t, g)
			faults.Disable()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("levels under injected pull faults: %v want %v", got, want)
			}
			if retries := core.StatsSnapshot().KernelRetries - base; retries != ran {
				t.Fatalf("%d kernel retries recorded, want one per pull (%d)", retries, ran)
			}
		})
	}
	if !pulled {
		t.Fatal("no BFS pulled: the injected faults were never reached")
	}
}

// TestBFSLevels_UnderAllocGovernor: with the allocation budget starved below
// the adjacency's transpose, the build a pulling level needs is denied as
// OutOfMemory on every attempt; BFS still matches the reference, pushing
// every level.
func TestBFSLevels_UnderAllocGovernor(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	g := bfsPullingGraph()
	want := refalgo.BFSLevels(refalgo.NewAdjacency(g), 0)
	prev := faults.SetAllocBudget(512)
	t.Cleanup(func() { faults.SetAllocBudget(prev) })
	base, before := faults.InjectedCount(), pulls()
	got := bfsLevels(t, g)
	faults.SetAllocBudget(0)
	if faults.InjectedCount() == base {
		t.Fatal("governor never denied the transpose build")
	}
	if pulls() != before {
		t.Fatal("a level pulled without its transpose")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("levels under the starved governor: %v want %v", got, want)
	}
}

// TestPageRank_UnderKernelFaults: with every pull failing by injection, a
// whole PageRank still completes with ranks bit-identical to the fault-free
// run — each failed pull is re-executed as a push, and the two directions
// fold in one order — and the retries are visible in the engine stats.
func TestPageRank_UnderKernelFaults(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	t.Cleanup(faults.Disable)
	g := pullingGraph()
	wantI, wantV := pageRankTuples(t, g)
	faults.Configure(1, faults.Rule{Site: "format.kernel.csr.pull", Kind: faults.KernelErr})
	base := core.StatsSnapshot().KernelRetries
	gotI, gotV := pageRankTuples(t, g)
	faults.Disable()
	if !reflect.DeepEqual(gotI, wantI) || !reflect.DeepEqual(gotV, wantV) {
		t.Fatal("ranks under injected pull faults differ from the fault-free run")
	}
	if st := core.StatsSnapshot(); st.KernelRetries == base {
		t.Fatalf("no kernel retries recorded: %+v", st)
	}
}

// TestPageRank_UnderAllocGovernor: with the allocation budget starved below
// the adjacency's transpose, the build every pull needs is denied as
// OutOfMemory on every attempt; PageRank still matches the fault-free run,
// pushing every sweep.
func TestPageRank_UnderAllocGovernor(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	g := pullingGraph()
	wantI, wantV := pageRankTuples(t, g)
	prev := faults.SetAllocBudget(512)
	t.Cleanup(func() { faults.SetAllocBudget(prev) })
	base := faults.InjectedCount()
	gotI, gotV := pageRankTuples(t, g)
	faults.SetAllocBudget(0)
	if faults.InjectedCount() == base {
		t.Fatal("governor never denied the transpose build")
	}
	if !reflect.DeepEqual(gotI, wantI) || !reflect.DeepEqual(gotV, wantV) {
		t.Fatal("ranks under the starved governor differ from the fault-free run")
	}
}
