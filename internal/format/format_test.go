package format

import (
	"math/rand"
	"testing"

	"graphblas/internal/sparse"
)

// randCSR builds a random nrows×ncols CSR matrix with the given fill ratio.
func randCSR(rng *rand.Rand, nrows, ncols int, fill float64) *sparse.CSR[float64] {
	var rows, cols []int
	var vals []float64
	for i := 0; i < nrows; i++ {
		for j := 0; j < ncols; j++ {
			if rng.Float64() < fill {
				rows = append(rows, i)
				cols = append(cols, j)
				vals = append(vals, float64(rng.Intn(19))-9)
			}
		}
	}
	m, ok := sparse.BuildCSR(nrows, ncols, rows, cols, vals, nil)
	if !ok {
		panic("duplicate tuples in randCSR")
	}
	return m
}

// randVec builds a random sparse vector of size n with the given fill ratio.
func randVec(rng *rand.Rand, n int, fill float64) *sparse.Vec[float64] {
	v := &sparse.Vec[float64]{N: n}
	for i := 0; i < n; i++ {
		if rng.Float64() < fill {
			v.Idx = append(v.Idx, i)
			v.Val = append(v.Val, float64(rng.Intn(19))-9)
		}
	}
	return v
}

// TestRoundTripAllPairs is the property test of the conversions: for
// random matrices across fill ratios, every ordered pair of layouts must
// preserve the stored tuples exactly.
func TestRoundTripAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, fill := range []float64{0, 0.001, 0.01, 0.1, 0.5, 0.95} {
		for trial := 0; trial < 4; trial++ {
			nr := 1 + rng.Intn(70)
			nc := 1 + rng.Intn(130)
			m := randCSR(rng, nr, nc, fill)
			wantI, wantJ, wantV := m.Tuples()
			kinds := []Kind{Auto, CSRKind, BitmapKind, HyperKind}
			for _, k1 := range kinds {
				for _, k2 := range kinds {
					s := Convert(Convert[float64](Wrap(m), k1), k2)
					gi, gj, gv := s.ToCSR().Tuples()
					if !sameTuples(wantI, wantJ, wantV, gi, gj, gv) {
						t.Fatalf("fill %v %dx%d: convert %v→%v changed tuples", fill, nr, nc, k1, k2)
					}
					if s.NNZ() != m.NNZ() {
						t.Fatalf("convert %v→%v: nnz %d, want %d", k1, k2, s.NNZ(), m.NNZ())
					}
				}
			}
		}
	}
}

// TestConvertAutoKeepsLayout: with no policy choosing a layout, converting
// to Auto hands back the store it was given, whatever its layout or fill.
func TestConvertAutoKeepsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dense := randCSR(rng, 64, 64, 0.5)
	hypersparse := randCSR(rng, 2048, 2048, 0.00001)
	for _, s := range []Store[float64]{Wrap(dense), Wrap(hypersparse), BitmapFromCSR(dense), HyperFromCSR(hypersparse)} {
		if got := Convert(s, Auto); got != s {
			t.Errorf("auto-convert of a %v store returned a %v store", s.Kind(), got.Kind())
		}
	}
}

func sameTuples[T comparable](ai, aj []int, av []T, bi, bj []int, bv []T) bool {
	if len(ai) != len(bi) {
		return false
	}
	for k := range ai {
		if ai[k] != bi[k] || aj[k] != bj[k] || av[k] != bv[k] {
			return false
		}
	}
	return true
}

func plusF(a, b float64) float64  { return a + b }
func timesF(a, b float64) float64 { return a * b }

func vecEqual(a, b *sparse.Vec[float64]) bool {
	if a.N != b.N || len(a.Idx) != len(b.Idx) {
		return false
	}
	for k := range a.Idx {
		if a.Idx[k] != b.Idx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// masksFor returns the mask variants the dot kernels must agree under.
func masksFor(rng *rand.Rand, n int) []*sparse.VecMask {
	var idx []int
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.4 {
			idx = append(idx, i)
		}
	}
	return []*sparse.VecMask{
		nil,
		{N: n, Idx: idx, Structure: idx, Comp: false},
		{N: n, Idx: idx, Structure: idx, Comp: true},
	}
}

// TestKernelEquivalence checks the bitmap dot kernel against the CSR
// reference kernel on random operands, with and without masks.
func TestKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		nr := 1 + rng.Intn(90)
		nc := 1 + rng.Intn(90)
		fill := []float64{0.02, 0.2, 0.7}[trial%3]
		a := randCSR(rng, nr, nc, fill)
		u := randVec(rng, nc, 0.5)
		b := BitmapFromCSR(a)

		for _, vm := range masksFor(rng, nr) {
			want := sparse.DotMxV(a, u, timesF, plusF, vm)
			if got := DotMxVBitmap(b, u, timesF, plusF, vm); !vecEqual(got, want) {
				t.Fatalf("trial %d: DotMxVBitmap disagrees with DotMxV", trial)
			}
		}
	}
}

// TestDenseProductWins pins the dense product's rule at its edges: the
// fill threshold and the cell cap on B and on the product.
func TestDenseProductWins(t *testing.T) {
	cases := []struct {
		name    string
		m, k, n int
		nnzB    int
		want    bool
	}{
		{"empty-dims", 0, 100, 100, 0, false},
		{"below-fill", 100, 100, 100, 399, false},
		{"at-fill", 100, 100, 100, 400, true},
		{"full", 100, 100, 100, 10000, true},
		{"B-over-cap", 1, 1 << 14, 1<<13 + 1, 1 << 27, false},
		{"C-over-cap", 1 << 20, 64, 1 << 8, 1 << 14, false},
	}
	for _, c := range cases {
		if got := DenseProductWins(c.m, c.k, c.n, c.nnzB); got != c.want {
			t.Errorf("%s: DenseProductWins(%d,%d,%d,%d) = %v, want %v", c.name, c.m, c.k, c.n, c.nnzB, got, c.want)
		}
	}
}

// TestSpGEMMBitmapEquivalence checks the dense ⟨+,×⟩ product — B as a
// bitmap, the product folded in dense rows — against the reference SpGEMM
// on random shapes: the same tuples, the same count from the bitmap's
// popcount, and an exact-size CSR result.
func TestSpGEMMBitmapEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 6; trial++ {
		m := 1 + rng.Intn(50)
		k := 1 + rng.Intn(50)
		n := 1 + rng.Intn(50)
		a := randCSR(rng, m, k, 0.15)
		b := randCSR(rng, k, n, 0.4)
		want := sparse.SpGEMM(a, b, timesF, plusF, nil)
		wi, wj, wv := want.Tuples()

		if bm := spGEMMBitmapPlusTimes(a, BitmapFromCSR(b)); bm.NNZ() != want.NNZ() {
			t.Fatalf("trial %d: bitmap product nnz = %d, want %d", trial, bm.NNZ(), want.NNZ())
		}
		r, ok := TryMxMPlusTimes(a, b)
		if !ok {
			t.Fatal("TryMxMPlusTimes refused float64 operands")
		}
		got := r.(*sparse.CSR[float64])
		gi, gj, gv := got.Tuples()
		if !sameTuples(wi, wj, wv, gi, gj, gv) {
			t.Fatalf("trial %d: dense product disagrees with SpGEMM", trial)
		}
		if cap(got.ColIdx) != len(got.ColIdx) || cap(got.Val) != len(got.Val) {
			t.Fatalf("trial %d: dense product's arrays are not exact-size", trial)
		}
	}
}

// TestTryDispatchRefusals pins down that the any-based dispatcher refuses
// mismatched or unsupported domains instead of mis-typing.
func TestTryDispatchRefusals(t *testing.T) {
	a64 := sparse.NewCSR[float64](4, 4)
	if _, ok := TryMxMPlusTimes(sparse.NewCSR[int](4, 4), a64); ok {
		t.Error("mixed int/float64 mxm dispatch should refuse")
	}
	ac := sparse.NewCSR[complex128](4, 4)
	if _, ok := TryMxMPlusTimes(ac, ac); ok {
		t.Error("complex128 mxm dispatch should refuse")
	}
	if got, ok := TryMxMPlusTimes(a64, a64); !ok || got.(*sparse.CSR[float64]).NNZ() != 0 {
		t.Error("float64 mxm dispatch refused or not empty")
	}
}
