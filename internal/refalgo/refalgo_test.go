package refalgo

import (
	"math"
	"testing"
	"testing/quick"

	"graphblas/internal/generate"
)

func TestBFSLevelsKnown(t *testing.T) {
	g := generate.Path(5)
	a := NewAdjacency(g)
	lv := BFSLevels(a, 0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if lv[i] != want {
			t.Fatalf("level[%d]=%d", i, lv[i])
		}
	}
	lv = BFSLevels(a, 4) // no edges back
	for i := 0; i < 4; i++ {
		if lv[i] != -1 {
			t.Fatalf("unreachable %d has level %d", i, lv[i])
		}
	}
}

func TestBFSParentsKnown(t *testing.T) {
	g := generate.Star(5) // center 0, bidirectional
	a := NewAdjacency(g)
	p := BFSParents(a, 2)
	if p[2] != 2 || p[0] != 2 {
		t.Fatalf("parents %v", p)
	}
	for _, leaf := range []int{1, 3, 4} {
		if p[leaf] != 0 {
			t.Fatalf("leaf %d parent %d", leaf, p[leaf])
		}
	}
}

func TestShortestPathsKnown(t *testing.T) {
	// Weighted diamond where the long way is shorter: 0→1 (5), 0→2 (1),
	// 2→1 (1), 1→3 (1).
	g := &generate.Graph{N: 4, Edges: []generate.Edge{
		{Src: 0, Dst: 1, Weight: 5},
		{Src: 0, Dst: 2, Weight: 1},
		{Src: 2, Dst: 1, Weight: 1},
		{Src: 1, Dst: 3, Weight: 1},
	}}
	a := NewAdjacency(g)
	for _, dist := range [][]float64{Dijkstra(a, 0), BellmanFord(a, 0)} {
		want := []float64{0, 2, 1, 3}
		for i := range want {
			if dist[i] != want[i] {
				t.Fatalf("dist %v", dist)
			}
		}
	}
}

// Property: Dijkstra and Bellman-Ford agree on random nonnegative graphs.
func TestQuickDijkstraBellmanFordAgree(t *testing.T) {
	f := func(seed uint64) bool {
		g := generate.ErdosRenyiGnm(40, 150, seed)
		a := NewAdjacency(g)
		d1 := Dijkstra(a, 0)
		d2 := BellmanFord(a, 0)
		for v := range d1 {
			if math.IsInf(d1[v], 1) != math.IsInf(d2[v], 1) {
				return false
			}
			if !math.IsInf(d1[v], 1) && math.Abs(d1[v]-d2[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBrandesKnown(t *testing.T) {
	// Path 0-1-2-3-4 (undirected): BC of inner vertices from all sources.
	g := generate.Path(5).Symmetrize()
	a := NewAdjacency(g)
	all := []int{0, 1, 2, 3, 4}
	bc := BrandesBC(a, all)
	// Classic undirected-path BC (directed counting, both directions):
	// v1: pairs (0,2),(0,3),(0,4) and reverses = 6; v2: (0,3),(0,4),(1,3),(1,4) ×2 = 8.
	want := []float64{0, 6, 8, 6, 0}
	for i := range want {
		if math.Abs(bc[i]-want[i]) > 1e-9 {
			t.Fatalf("bc %v want %v", bc, want)
		}
	}
	// Star: center lies on every leaf-to-leaf shortest path.
	s := generate.Star(6)
	sa := NewAdjacency(s)
	sbc := BrandesBC(sa, []int{0, 1, 2, 3, 4, 5})
	if sbc[0] != 20 { // 5 leaves → 5·4 ordered pairs
		t.Fatalf("star center bc %v", sbc[0])
	}
	for leaf := 1; leaf < 6; leaf++ {
		if sbc[leaf] != 0 {
			t.Fatalf("leaf bc %v", sbc[leaf])
		}
	}
}

func TestPersonalizedPageRankProperties(t *testing.T) {
	a := NewAdjacency(generate.RMAT(7, 6, 3).Dedup(true))
	rank, iters := PersonalizedPageRank(a, 5, 0.85, 1e-10, 500)
	if iters == 0 || iters == 500 {
		t.Fatalf("%d sweeps, want convergence before the bound", iters)
	}
	sum := 0.0
	for _, r := range rank {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Fatalf("ranks sum %v", sum)
	}
	// Cycle: the restart vertex ranks first, and the rank decays by d per
	// hop away from it.
	crank, _ := PersonalizedPageRank(NewAdjacency(generate.Cycle(10)), 3, 0.85, 1e-14, 1000)
	for h := 1; h < 10; h++ {
		if got, want := crank[(3+h)%10], crank[(3+h-1)%10]*0.85; math.Abs(got-want) > 1e-12 {
			t.Fatalf("cycle rank %d hops from the restart: %v, want %v", h, got, want)
		}
	}
}

func TestPageRankProperties(t *testing.T) {
	g := generate.RMAT(7, 6, 3).Dedup(true)
	a := NewAdjacency(g)
	rank, iters := PageRank(a, 0.85, 1e-10, 500)
	if iters == 0 {
		t.Fatal("no iterations")
	}
	sum := 0.0
	for _, r := range rank {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Fatalf("ranks sum %v", sum)
	}
	// Cycle: uniform stationary distribution.
	c := generate.Cycle(10)
	crank, _ := PageRank(NewAdjacency(c), 0.85, 1e-12, 1000)
	for _, r := range crank {
		if math.Abs(r-0.1) > 1e-9 {
			t.Fatalf("cycle rank %v", crank)
		}
	}
}

func TestTriangleCountKnown(t *testing.T) {
	k4 := generate.Complete(4).Symmetrize().Dedup(true)
	if got := TriangleCount(NewAdjacency(k4)); got != 4 {
		t.Fatalf("K4 triangles %d", got)
	}
	k5 := generate.Complete(5).Symmetrize().Dedup(true)
	if got := TriangleCount(NewAdjacency(k5)); got != 10 {
		t.Fatalf("K5 triangles %d", got)
	}
	p := generate.Path(10).Symmetrize().Dedup(true)
	if got := TriangleCount(NewAdjacency(p)); got != 0 {
		t.Fatalf("path triangles %d", got)
	}
}

func TestConnectedComponentsKnown(t *testing.T) {
	g := &generate.Graph{N: 6, Edges: []generate.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 4, Dst: 5, Weight: 1},
	}}
	labels := ConnectedComponents(g)
	want := []int{0, 0, 0, 3, 4, 4}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels %v", labels)
		}
	}
}

func TestAdjacencySortsNeighbors(t *testing.T) {
	g := &generate.Graph{N: 3, Edges: []generate.Edge{
		{Src: 0, Dst: 2, Weight: 9}, {Src: 0, Dst: 1, Weight: 3},
	}}
	a := NewAdjacency(g)
	nb := a.Neighbors(0)
	if nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("neighbors %v", nb)
	}
	if a.Weight[a.Ptr[0]] != 3 || a.Weight[a.Ptr[0]+1] != 9 {
		t.Fatal("weights not permuted with neighbors")
	}
}
