package algorithms

import (
	"math"
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/generate"
	"graphblas/internal/obs"
	"graphblas/internal/refalgo"
)

// TestBFSLevelsDO_MatchesBFSLevels keeps the name of the hand-rolled
// direction-optimizing BFS it used to check: the direction is now the
// engine's choice inside VxM (core.pushOrPull), so the regression is that
// BFSLevels equals the reference whichever way each level ran. The small
// graphs never reach the rule. The two RMAT graphs do once a transposed read
// has left Aᵀ cached: their middle levels hold most of the edges and are
// pulled, the first and last are pushed — asserted through the direction
// counter — while on the cold matrix every level is pushed.
func TestBFSLevelsDO_MatchesBFSLevels(t *testing.T) {
	graphs := testGraphs()
	graphs["rmat11"] = generate.RMAT(11, 8, 5).Dedup(true)
	graphs["rmat12"] = generate.RMAT(12, 8, 6).Dedup(true)
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			adj := refalgo.NewAdjacency(g)
			a := boolMatrix(t, g)
			check := func(src int) {
				t.Helper()
				want := refalgo.BFSLevels(adj, src)
				lv, err := BFSLevels(a, src)
				if err != nil {
					t.Fatalf("BFSLevels: %v", err)
				}
				idx, val, _ := lv.ExtractTuples()
				got := make([]int, g.N)
				for i := range got {
					got[i] = -1
				}
				for k := range idx {
					got[idx[k]] = int(val[k])
				}
				for v := 0; v < g.N; v++ {
					if got[v] != want[v] {
						t.Errorf("src %d level[%d]: got %d want %d", src, v, got[v], want[v])
					}
				}
			}
			pulled := obs.MxVDirection.With("pull")
			pushed := obs.MxVDirection.With("push")
			cold := pulled.Value()
			for _, src := range []int{0, g.N / 3} {
				check(src)
			}
			if n := pulled.Value() - cold; n != 0 {
				t.Errorf("%d levels pulled with no transpose in hand", n)
			}
			// A transposed read caches Aᵀ on the matrix.
			at, err := core.NewMatrix[bool](g.N, g.N)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.Transpose(at, core.NoMask, core.NoAccum[bool](), a, nil); err != nil {
				t.Fatal(err)
			}
			if err := core.Wait(); err != nil {
				t.Fatal(err)
			}
			pull0, push0 := pulled.Value(), pushed.Value()
			for _, src := range []int{0, g.N / 3} {
				check(src)
			}
			if len(g.Edges) > 8192 && (pulled.Value() == pull0 || pushed.Value() == push0) {
				t.Errorf("with Aᵀ cached BFS ran %d levels pulled and %d pushed, want both",
					pulled.Value()-pull0, pushed.Value()-push0)
			}
		})
	}
}

// directJaccard computes the oracle similarities on adjacency lists.
func directJaccard(adj *refalgo.Adjacency) map[[2]int]float64 {
	out := map[[2]int]float64{}
	for i := 0; i < adj.N; i++ {
		ni := adj.Neighbors(i)
		for _, j := range ni {
			nj := adj.Neighbors(j)
			common := 0
			p, q := 0, 0
			for p < len(ni) && q < len(nj) {
				switch {
				case ni[p] < nj[q]:
					p++
				case ni[p] > nj[q]:
					q++
				default:
					common++
					p++
					q++
				}
			}
			if common > 0 {
				out[[2]int{i, j}] = float64(common) / float64(len(ni)+len(nj)-common)
			}
		}
	}
	return out
}

func TestJaccard_AgainstDirect(t *testing.T) {
	for name, g := range symGraphs() {
		t.Run(name, func(t *testing.T) {
			adj := refalgo.NewAdjacency(g)
			want := directJaccard(adj)
			a := boolMatrix(t, g)
			jm, err := Jaccard(a)
			if err != nil {
				t.Fatalf("Jaccard: %v", err)
			}
			is, js, vs, _ := jm.ExtractTuples()
			if len(is) != len(want) {
				t.Fatalf("pair count %d want %d", len(is), len(want))
			}
			for k := range is {
				w, ok := want[[2]int{is[k], js[k]}]
				if !ok {
					t.Fatalf("spurious pair (%d,%d)", is[k], js[k])
				}
				if math.Abs(vs[k]-w) > 1e-12 {
					t.Fatalf("J(%d,%d) got %v want %v", is[k], js[k], vs[k], w)
				}
			}
		})
	}
	// Known value: in K4, every adjacent pair shares the other 2 vertices:
	// J = 2/(3+3-2) = 0.5.
	k4 := generate.Complete(4).Symmetrize().Dedup(true)
	jm, err := Jaccard(boolMatrix(t, k4))
	if err != nil {
		t.Fatal(err)
	}
	_, _, vs, _ := jm.ExtractTuples()
	if len(vs) != 12 {
		t.Fatalf("K4 pairs %d", len(vs))
	}
	for _, v := range vs {
		if v != 0.5 {
			t.Fatalf("K4 jaccard %v", v)
		}
	}
}
