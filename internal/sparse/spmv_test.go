package sparse

import (
	"math"
	"math/rand"
	"testing"

	"graphblas/internal/parallel"
)

// randFloatCSR builds a CSR with arbitrary (sign-mixed, inexact) float
// values: fold order is observable in the low bits of the sums, which is
// exactly what the bit-exactness tests below need.
func randFloatCSR(rng *rand.Rand, nr, nc int, p float64) *CSR[float64] {
	var is, js []int
	var vs []float64
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Float64() < p {
				is = append(is, i)
				js = append(js, j)
				vs = append(vs, rng.NormFloat64())
			}
		}
	}
	c, ok := BuildCSR(nr, nc, is, js, vs, nil)
	if !ok {
		panic("BuildCSR failed")
	}
	return c
}

func randFloatVec(rng *rand.Rand, n int, p float64) *Vec[float64] {
	v := NewVec[float64](n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			v.Idx = append(v.Idx, i)
			v.Val = append(v.Val, rng.NormFloat64())
		}
	}
	return v
}

// requireBitIdentical fails unless the two vectors are bitwise identical —
// same structure and bit-for-bit equal values, the regression bar for the
// parallel kernels.
func requireBitIdentical(t *testing.T, label string, got, want *Vec[float64]) {
	t.Helper()
	if got.N != want.N || len(got.Idx) != len(want.Idx) {
		t.Fatalf("%s: shape differs: got n=%d nnz=%d, want n=%d nnz=%d", label, got.N, len(got.Idx), want.N, len(want.Idx))
	}
	for k := range got.Idx {
		if got.Idx[k] != want.Idx[k] {
			t.Fatalf("%s: index %d differs: got %d, want %d", label, k, got.Idx[k], want.Idx[k])
		}
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: value at %d not bit-identical: got %x (%v), want %x (%v)",
				label, got.Idx[k], math.Float64bits(got.Val[k]), got.Val[k], math.Float64bits(want.Val[k]), want.Val[k])
		}
	}
}

// maskVariants returns the mask shapes every kernel pair is checked under.
func maskVariants(rng *rand.Rand, n int) map[string]*VecMask {
	stored := make([]int, 0, n)
	eff := make([]int, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0: // stored and true
			stored = append(stored, i)
			eff = append(eff, i)
		case 1: // stored but false
			stored = append(stored, i)
		}
	}
	return map[string]*VecMask{
		"nomask": nil,
		"mask":   {N: n, Idx: eff, Structure: stored},
		"comp":   {N: n, Idx: eff, Structure: stored, Comp: true},
	}
}

// TestPushMxV_ParallelMatchesSerial is the regression test for the
// parallelized push kernel: the count/scatter/in-order-fold scheme must be
// bit-exact with the serial SPA pass for any worker count, because fold
// order is part of the engine's byte-identity bar. Sign-mixed random floats
// make any reassociation visible in the result bits.
func TestPushMxV_ParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	side := largeSide(parallel.SplitWork, 0.95*0.98)
	cases := []struct {
		name   string
		nr, nc int
		pm, pv float64
	}{
		// 1.25 SplitWork edges of frontier work: past the split floor, so
		// the parallel path really engages at workers > 1.
		{"large", side, side, 0.95, 0.98},
		// Rectangular, moderate density, still past the floor.
		{"rect", 4 * side, side / 2, 0.6, 0.9},
		// Tiny: below the floor everywhere; both settings take the serial
		// pass and must still agree.
		{"small", 8, 8, 0.5, 0.5},
	}
	for _, tc := range cases {
		a := randFloatCSR(rng, tc.nr, tc.nc, tc.pm)
		u := randFloatVec(rng, tc.nr, tc.pv)
		if edges := frontierEdges(a, u); tc.nr > 8 && edges < parallel.SplitWork {
			t.Fatalf("%s: %d edges of frontier work, under the split floor %d", tc.name, edges, parallel.SplitWork)
		}
		for name, mask := range maskVariants(rng, tc.nc) {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				prev := parallel.SetMaxWorkers(1)
				serial := PushMxV(a, u, mulF, addF, mask)
				parallel.SetMaxWorkers(4)
				wide := PushMxV(a, u, mulF, addF, mask)
				parallel.SetMaxWorkers(prev)
				requireBitIdentical(t, "PushMxV workers=4 vs 1", wide, serial)
			})
		}
	}
}

// frontierEdges is the push kernel's work on u: the edges leaving its rows.
func frontierEdges(a *CSR[float64], u *Vec[float64]) int {
	n := 0
	for _, k := range u.Idx {
		n += a.Ptr[k+1] - a.Ptr[k]
	}
	return n
}
