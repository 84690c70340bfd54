package sparse

import (
	"fmt"
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

// TestPushMxV_MatchesPull holds the push to the pull over Aᵀ bit for bit,
// at one worker and at several: the engine picks a direction per call
// (Ring.PullWins), so the choice must not show, and fold order is part of
// the engine's byte-identity bar. The push folds each target in ascending
// k, as the pull folds a row of Aᵀ; the pull splits its rows past the
// floor, the push never does. Sign-mixed random floats make any
// reassociation visible in the result bits. Both the closures and the
// predefined ⟨+, ×⟩ loops are compared.
func TestPushMxV_MatchesPull(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	side := largeSide(parallel.SplitWork, 0.95*0.98)
	cases := []struct {
		name   string
		nr, nc int
		pm, pv float64
	}{
		// 1.25 SplitWork edges of frontier work: past the split floor, so
		// at several workers the pull splits and the push does not.
		{"large", side, side, 0.95, 0.98},
		// Rectangular, moderate density, still past the floor.
		{"rect", 4 * side, side / 2, 0.6, 0.9},
		// Tiny: below the floor everywhere.
		{"small", 8, 8, 0.5, 0.5},
	}
	rings := map[string]Ring[float64, float64, float64]{
		"closure":    ring(mulF, addF),
		"plus.times": {Mul: mulF, Add: addF, MulOp: OpTimes, AddOp: OpPlus},
	}
	for _, tc := range cases {
		a := randFloatCSR(rng, tc.nr, tc.nc, tc.pm)
		at := a.Transpose()
		u := randFloatVec(rng, tc.nr, tc.pv)
		if edges := frontierEdges(a, u); tc.nr > 8 && edges < parallel.SplitWork {
			t.Fatalf("%s: %d edges of frontier work, under the split floor %d", tc.name, edges, parallel.SplitWork)
		}
		for name, mask := range maskVariants(rng, tc.nc) {
			for rname, r := range rings {
				t.Run(tc.name+"/"+name+"/"+rname, func(t *testing.T) {
					for _, workers := range []int{1, 2, 4} {
						parallel.SetMaxWorkersForTest(t, workers)
						requireBitIdentical(t, fmt.Sprintf("PushMxV against DotMxV over Aᵀ, workers=%d", workers),
							r.PushMxV(a, u, mask), r.DotMxV(at, u, mask))
					}
				})
			}
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
