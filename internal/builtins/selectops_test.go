package builtins

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphblas/internal/core"
)

// selectTuples runs C = select(op, A) — with A transposed under tran0 — and
// returns C's entries keyed by position.
func selectTuples(t *testing.T, op core.IndexUnaryOp[float64, bool], a *core.Matrix[float64], tran0 bool) map[[2]int]float64 {
	t.Helper()
	nr, _ := a.NRows()
	nc, _ := a.NCols()
	var desc *core.Descriptor
	if tran0 {
		nr, nc = nc, nr
		desc = core.Desc().Transpose0()
	}
	c, err := core.NewMatrix[float64](nr, nc)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SelectM(c, core.NoMask, core.NoAccum[float64](), op, a, desc); err != nil {
		t.Fatal(err)
	}
	is, js, vs, err := c.ExtractTuples()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[[2]int]float64, len(is))
	for p := range is {
		out[[2]int{is[p], js[p]}] = vs[p]
	}
	return out
}

// selectFixture is an nr×nc matrix about 40 % full whose every third row is
// empty, with values that tell its entries apart.
func selectFixture(t *testing.T, rng *rand.Rand, nr, nc int) *core.Matrix[float64] {
	t.Helper()
	var is, js []int
	var vs []float64
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if i%3 != 1 && rng.Float64() < 0.4 {
				is, js, vs = append(is, i), append(js, j), append(vs, float64(i*nc+j)+0.5)
			}
		}
	}
	m, err := core.NewMatrix[float64](nr, nc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Build(is, js, vs, First[float64]()); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPositionalSelectMatchesClosures: Tril, Triu, DiagSel and OffDiag,
// which SelectM serves by position, select what closure twins computing the
// same predicate select, on square and rectangular matrices with empty
// rows, short and long, under Transpose0, for k from −3 to 3 and the int
// extremes. And
// Tril(k) and Triu(k+1) split A: disjoint, their union A.
func TestPositionalSelectMatchesClosures(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ks := []int{-3, -2, -1, 0, 1, 2, 3, math.MinInt, math.MaxInt}
	twin := func(name string, keep func(d int) bool) core.IndexUnaryOp[float64, bool] {
		return core.IndexUnaryOp[float64, bool]{Name: name, F: func(_ float64, i, j int) bool { return keep(j - i) }}
	}
	// Rows of the last two shapes hold more entries than bandSplit counts
	// through, so they are split by binary search.
	for _, shape := range [][2]int{{1, 1}, {6, 6}, {5, 9}, {9, 5}, {13, 4}, {3, 14}, {12, 150}, {150, 150}} {
		a := selectFixture(t, rng, shape[0], shape[1])
		for _, tran0 := range []bool{false, true} {
			for _, k := range ks {
				label := fmt.Sprintf("%dx%d/tran0=%v/k=%d", shape[0], shape[1], tran0, k)
				cases := []struct {
					name       string
					positional core.IndexUnaryOp[float64, bool]
					closure    core.IndexUnaryOp[float64, bool]
				}{
					{"tril", Tril[float64](k), twin("tril", func(d int) bool { return d <= k })},
					{"triu", Triu[float64](k), twin("triu", func(d int) bool { return d >= k })},
					{"diag", DiagSel[float64](k), twin("diag", func(d int) bool { return d == k })},
					{"offdiag", OffDiag[float64](k), twin("offdiag", func(d int) bool { return d != k })},
				}
				for _, c := range cases {
					got, want := selectTuples(t, c.positional, a, tran0), selectTuples(t, c.closure, a, tran0)
					if len(got) != len(want) {
						t.Fatalf("%s/%s: %d entries, the closure keeps %d", label, c.name, len(got), len(want))
					}
					for pos, v := range want {
						if g, ok := got[pos]; !ok || math.Float64bits(g) != math.Float64bits(v) {
							t.Fatalf("%s/%s: entry %v = %v, %v; the closure keeps %v", label, c.name, pos, g, ok, v)
						}
					}
				}
				if k == math.MinInt || k == math.MaxInt {
					continue
				}
				all := selectTuples(t, twin("all", func(int) bool { return true }), a, tran0)
				lower, upper := selectTuples(t, Tril[float64](k), a, tran0), selectTuples(t, Triu[float64](k+1), a, tran0)
				if len(lower)+len(upper) != len(all) {
					t.Fatalf("%s: tril(k) keeps %d and triu(k+1) %d of %d entries", label, len(lower), len(upper), len(all))
				}
				for pos, v := range all {
					l, inL := lower[pos]
					u, inU := upper[pos]
					if inL == inU || inL && l != v || inU && u != v {
						t.Fatalf("%s: entry %v is in tril(k) %v and triu(k+1) %v, not in exactly one", label, pos, inL, inU)
					}
				}
			}
		}
	}
}

// TestPositionalSelectNeedsItsOwnFunction: a positional operator whose
// function the caller replaced, and a user's operator that only shares its
// name, are closures: SelectM calls their function on every entry.
func TestPositionalSelectNeedsItsOwnFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := selectFixture(t, rng, 8, 8)
	everything := func(float64, int, int) bool { return true }
	replaced := Tril[float64](-1)
	replaced.F = everything
	named := core.IndexUnaryOp[float64, bool]{Name: "tril", F: everything}
	all := selectTuples(t, core.IndexUnaryOp[float64, bool]{Name: "all", F: everything}, a, false)
	for name, op := range map[string]core.IndexUnaryOp[float64, bool]{"replaced": replaced, "named": named} {
		if got := selectTuples(t, op, a, false); len(got) != len(all) {
			t.Errorf("%s: %d entries selected, the function keeps all %d", name, len(got), len(all))
		}
	}
}
