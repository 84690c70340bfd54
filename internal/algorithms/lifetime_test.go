package algorithms

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/generate"
	"graphblas/internal/leakcheck"
	"graphblas/internal/pool"
)

// churnShelves draws every array the pool's value shelves hold, in every
// number domain and every size class a test vector or matrix store of up
// to 4096 entries occupies, fills it with junk and shelves it again: an
// array the pool took back while a returned vector still holds it now holds
// values and positions no algorithm computed, and the comparison that
// follows shows it.
func churnShelves() {
	churn(func(s []int) { fill(s, -1) })
	churn(func(s []int32) { fill(s, -7) })
	churn(func(s []int64) { fill(s, -7) })
	churn(func(s []float32) { fill(s, float32(math.NaN())) })
	churn(func(s []float64) { fill(s, math.NaN()) })
	churn(func(s []bool) { fill(s, true) })
}

func churn[T any](junk func([]T)) {
	const shelf = 64 // at least the pool's per-class shelf capacity
	for class := 0; class <= 12; class++ {
		drawn := make([][]T, 0, shelf)
		for k := 0; k < shelf; k++ {
			s := pool.Vals[T](1 << class)
			junk(s)
			drawn = append(drawn, s)
		}
		for _, s := range drawn {
			pool.Recycle(s)
		}
	}
}

func fill[T any](s []T, x T) {
	for i := range s {
		s[i] = x
	}
}

// later returns the reader of an algorithm's result, to be called once the
// shelves have been churned.
func later[T any](t *testing.T, v *core.Vector[T], err error) func() (any, error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return func() (any, error) {
		idx, val, err := v.ExtractTuples()
		return [2]any{idx, val}, err
	}
}

// TestAlgorithmResultsOutliveTheirWorkVectors: every algorithm of the suite,
// and BCUpdate, frees its work vectors and matrices before it returns, and
// none of them leaves a pool draw or a goroutine behind. Whatever it
// shelved, the vector it returns keeps its values and positions: after
// every shelved array is overwritten, the result still equals a reference
// run's.
func TestAlgorithmResultsOutliveTheirWorkVectors(t *testing.T) {
	g := generate.RMAT(8, 4, 3).Dedup(true)
	sym := g.Symmetrize().Dedup(true)
	for _, mode := range []core.Mode{core.Blocking, core.NonBlocking} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			inMode(t, mode, 2, func() {
				pattern, weighted, undirected, counts := boolMatrix(t, g), floatMatrix(t, g), boolMatrix(t, sym), int32Matrix(t, g)
				runs := []struct {
					name string
					run  func(t *testing.T) func() (any, error)
				}{
					{"BFSLevels", func(t *testing.T) func() (any, error) { v, err := BFSLevels(pattern, 0); return later(t, v, err) }},
					{"SSSP", func(t *testing.T) func() (any, error) { v, err := SSSP(weighted, 0); return later(t, v, err) }},
					{"PageRank", func(t *testing.T) func() (any, error) {
						v, _, err := PageRank(weighted, 0.85, 1e-9, 20)
						return later(t, v, err)
					}},
					{"CC", func(t *testing.T) func() (any, error) {
						v, err := ConnectedComponents(undirected)
						return later(t, v, err)
					}},
					{"TriangleCount", func(t *testing.T) func() (any, error) {
						n, err := TriangleCount(undirected)
						if err != nil {
							t.Fatal(err)
						}
						return func() (any, error) { return n, nil }
					}},
					{"Reach", func(t *testing.T) func() (any, error) {
						v, err := Reach(pattern, []int{0, 5, 77})
						return later(t, v, err)
					}},
					{"BCUpdate", func(t *testing.T) func() (any, error) {
						v, err := BCUpdate(counts, []int{0, 3, 17, 42})
						return later(t, v, err)
					}},
				}
				for _, r := range runs {
					t.Run(r.name, func(t *testing.T) {
						want, err := r.run(t)()
						if err != nil {
							t.Fatalf("reference run: %v", err)
						}
						// Kernels draw their outputs uncleared (pool.RawVals):
						// from junk shelves, a position one leaves unwritten
						// shows against the reference.
						churnShelves()
						var read func() (any, error)
						t.Run("quiescent", func(t *testing.T) {
							leakcheck.AssertQuiescent(t)
							read = r.run(t)
						})
						if read == nil {
							return
						}
						churnShelves()
						got, err := read()
						if err != nil {
							t.Fatalf("reading %s's result: %v", r.name, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s's result changed when the pool's shelves were overwritten: a work vector freed an array the result holds", r.name)
						}
					})
				}
			})
		})
	}
}
