package algorithms

import (
	"math"
	"testing"

	"graphblas/internal/generate"
	"graphblas/internal/refalgo"
)

// TestLargeScaleSoak cross-validates the core algorithms at RMAT scale 13
// (8k vertices, ~57k edges) — beyond the unit-test sizes, small enough for
// CI. Skipped under -short.
func TestLargeScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	g := generate.RMAT(13, 8, 99).Dedup(true)
	adj := refalgo.NewAdjacency(g)
	ab := boolMatrix(t, g)
	ai := int32Matrix(t, g)
	af := floatMatrix(t, g)

	t.Run("bfs", func(t *testing.T) {
		want := refalgo.BFSLevels(adj, 0)
		lv, err := BFSLevels(ab, 0)
		if err != nil {
			t.Fatal(err)
		}
		idx, val, _ := lv.ExtractTuples()
		got := make([]int, g.N)
		for i := range got {
			got[i] = -1
		}
		for k := range idx {
			got[idx[k]] = int(val[k])
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("level[%d] %d want %d", v, got[v], want[v])
			}
		}
	})
	t.Run("sssp", func(t *testing.T) {
		want := refalgo.Dijkstra(adj, 0)
		d, err := SSSP(af, 0)
		if err != nil {
			t.Fatal(err)
		}
		idx, val, _ := d.ExtractTuples()
		got := make([]float64, g.N)
		for i := range got {
			got[i] = math.Inf(1)
		}
		for k := range idx {
			got[idx[k]] = val[k]
		}
		for v := range want {
			if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) || (!math.IsInf(want[v], 1) && math.Abs(got[v]-want[v]) > 1e-9) {
				t.Fatalf("dist[%d] %v want %v", v, got[v], want[v])
			}
		}
	})
	t.Run("bc", func(t *testing.T) {
		sources := generate.NewRNG(1).Perm(g.N)[:32]
		want := refalgo.BrandesBC(adj, sources)
		delta, err := BCUpdate(ai, sources)
		if err != nil {
			t.Fatal(err)
		}
		idx, val, _ := delta.ExtractTuples()
		got := make([]float64, g.N)
		for k := range idx {
			got[idx[k]] = float64(val[k])
		}
		for v := range want {
			if math.Abs(got[v]-want[v])/math.Max(1, math.Abs(want[v])) > 1e-3 {
				t.Fatalf("bc[%d] %v want %v", v, got[v], want[v])
			}
		}
	})
	t.Run("pagerank", func(t *testing.T) {
		want, _ := refalgo.PageRank(adj, 0.85, 1e-9, 300)
		r, _, err := PageRank(af, 0.85, 1e-9, 300)
		if err != nil {
			t.Fatal(err)
		}
		idx, val, _ := r.ExtractTuples()
		got := make([]float64, g.N)
		for k := range idx {
			got[idx[k]] = val[k]
		}
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-6 {
				t.Fatalf("rank[%d] %v want %v", v, got[v], want[v])
			}
		}
	})
}
