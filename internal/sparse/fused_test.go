package sparse

import (
	"math"
	"math/rand"
	"sync"
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
// parallel kernels and the fused kernels alike.
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

// vecStream adapts a materialized vector to the (n, idx, get) virtual form.
func vecStream(u *Vec[float64]) (int, []int, func(int) float64) {
	return u.N, u.Idx, func(p int) float64 { return u.Val[p] }
}

// TestFusedKernels_MatchMaterialized: each fused kernel over a
// materialized-vector stream must be bit-identical to its materializing
// counterpart, under every mask shape. This is the kernel half of the
// fusion byte-identity bar; the scheduler half lives in internal/core's
// differential tests.
func TestFusedKernels_MatchMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 64
	a := randFloatCSR(rng, n, n, 0.3)
	u := randFloatVec(rng, n, 0.5)
	c := randFloatVec(rng, n, 0.4)
	neg := func(x float64) float64 { return -3 * x }
	plus := func(x, y float64) float64 { return x + y }

	for name, mask := range maskVariants(rng, n) {
		t.Run("map/"+name, func(t *testing.T) {
			sn, sidx, get := vecStream(u)
			got := FusedVecMap(sn, sidx, get, neg, mask)
			// Reference: map then drop the positions the mask disallows —
			// exactly the entries the consumer's mask merge would discard.
			full := VecApply(u, neg)
			want := &Vec[float64]{N: full.N}
			cur := allowsCursor{mask: mask}
			for k, i := range full.Idx {
				if cur.allows(i) {
					want.Idx = append(want.Idx, i)
					want.Val = append(want.Val, full.Val[k])
				}
			}
			requireBitIdentical(t, "FusedVecMap/"+name, got, want)
		})
		t.Run("dot/"+name, func(t *testing.T) {
			sn, sidx, get := vecStream(u)
			got := ring(mulF, addF).FusedDotMxV(a, sn, sidx, get, mask)
			want := DotMxV(a, u, mulF, addF, mask)
			requireBitIdentical(t, "FusedDotMxV/"+name, got, want)
		})
		t.Run("push/"+name, func(t *testing.T) {
			_, sidx, get := vecStream(u)
			got := ring(mulF, addF).FusedPushMxV(a, sidx, get, mask)
			want := PushMxV(a, u, mulF, addF, mask)
			requireBitIdentical(t, "FusedPushMxV/"+name, got, want)
		})
	}

	// FusedAssignAccum carries no mask (the consumer's mask merge runs after
	// it); its reference is AssignExpandVec over the identity index list.
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	for _, accum := range []func(float64, float64) float64{nil, plus} {
		label := "assign/noaccum"
		if accum != nil {
			label = "assign/accum"
		}
		t.Run(label, func(t *testing.T) {
			_, sidx, get := vecStream(u)
			got := FusedAssignAccum(c, sidx, get, accum)
			want := AssignExpandVec(c, u, identity, accum)
			requireBitIdentical(t, label, got, want)
		})
	}
}

// TestFusedKernels_GetDiscipline: the virtual-source cursor is called
// exactly once per stream position; the streaming kernels additionally call
// it in increasing position order from one goroutine. Fused producers rely
// on this to observe the materialization evaluation schedule.
func TestFusedKernels_GetDiscipline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 32
	a := randFloatCSR(rng, n, n, 0.4)
	u := randFloatVec(rng, n, 0.7)
	c := randFloatVec(rng, n, 0.4)

	recorded := func() (func(int) float64, *[]int) {
		var calls []int
		return func(p int) float64 {
			calls = append(calls, p)
			return u.Val[p]
		}, &calls
	}
	requireOrdered := func(label string, calls []int) {
		t.Helper()
		if len(calls) != len(u.Idx) {
			t.Fatalf("%s: get called %d times, want once per position (%d)", label, len(calls), len(u.Idx))
		}
		for k, p := range calls {
			if p != k {
				t.Fatalf("%s: call %d was for position %d, want increasing order", label, k, p)
			}
		}
	}

	get, calls := recorded()
	FusedVecMap(u.N, u.Idx, get, func(x float64) float64 { return x }, nil)
	requireOrdered("map", *calls)

	get, calls = recorded()
	ring(mulF, addF).FusedDotMxV(a, u.N, u.Idx, get, nil)
	requireOrdered("dot", *calls)

	get, calls = recorded()
	FusedAssignAccum(c, u.Idx, get, addF)
	requireOrdered("assign", *calls)

	// Below pushParallelMinWork the push kernel is the serial SPA pass and
	// the ordered contract holds there too.
	get, calls = recorded()
	ring(mulF, addF).FusedPushMxV(a, u.Idx, get, nil)
	requireOrdered("push-serial", *calls)
}

// TestPushMxV_ParallelMatchesSerial is the regression test for the
// parallelized push kernel: the count/scatter/in-order-fold scheme must be
// bit-exact with the serial SPA pass for any worker count, because fold
// order is part of the engine's byte-identity bar (the DAG scheduler and
// the fusion pass both route through pushCore). Sign-mixed random floats
// make any reassociation visible in the result bits.
func TestPushMxV_ParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	cases := []struct {
		name   string
		nr, nc int
		pm, pv float64
	}{
		// ~3900 edges of frontier work: well past pushParallelMinWork, so
		// the parallel path really engages at workers > 1.
		{"large", 64, 64, 0.95, 0.98},
		// Rectangular, moderate density, still past the threshold.
		{"rect", 128, 48, 0.6, 0.9},
		// Tiny: below the threshold everywhere; both settings take the
		// serial pass and must still agree.
		{"small", 8, 8, 0.5, 0.5},
	}
	for _, tc := range cases {
		a := randFloatCSR(rng, tc.nr, tc.nc, tc.pm)
		u := randFloatVec(rng, tc.nr, tc.pv)
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

// TestPushMxV_ParallelGetOnce: even on the parallel path the frontier
// accessor is consulted exactly once per position (chunks partition the
// frontier), which is what lets FusedPushMxV stream a producer through it.
func TestPushMxV_ParallelGetOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randFloatCSR(rng, 64, 64, 0.95)
	u := randFloatVec(rng, 64, 0.98)
	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)

	var mu sync.Mutex
	counts := make([]int, len(u.Idx))
	got := ring(mulF, addF).FusedPushMxV(a, u.Idx, func(p int) float64 {
		mu.Lock()
		counts[p]++
		mu.Unlock()
		return u.Val[p]
	}, nil)
	for p, c := range counts {
		if c != 1 {
			t.Fatalf("frontier position %d evaluated %d times, want exactly once", p, c)
		}
	}
	requireBitIdentical(t, "FusedPushMxV parallel", got, PushMxV(a, u, mulF, addF, nil))
}
