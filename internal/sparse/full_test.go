package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"graphblas/internal/obs"
	"graphblas/internal/parallel"
)

// fullFixture builds a vector of size n that is full, partial (about half
// the positions) or empty, with values drawn from payloads that make a bit
// comparison mean something: signed zeros, NaNs carrying distinct payloads,
// and ordinary values.
func fullFixture(rng *rand.Rand, n int, fill string) *Vec[float64] {
	payloads := []float64{
		math.Copysign(0, -1), 0, 1.5, -3.25, 1e300, math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff80000deadbeef),
	}
	v := NewVec[float64](n)
	for i := 0; i < n; i++ {
		if fill == "empty" || fill == "partial" && rng.Intn(2) == 0 {
			continue
		}
		v.Idx = append(v.Idx, i)
		v.Val = append(v.Val, payloads[rng.Intn(len(payloads))])
	}
	return v
}

// sameBits reports where got differs from the merge's (idx, val) — in
// structure or in any value's bits — or "" when it does not.
func sameBits(got *Vec[float64], n int, idx []int, val []float64) string {
	if got.N != n || len(got.Idx) != len(idx) || len(got.Val) != len(val) {
		return fmt.Sprintf("shape: N %d nnz %d/%d, want N %d nnz %d", got.N, len(got.Idx), len(got.Val), n, len(idx))
	}
	for k := range idx {
		if got.Idx[k] != idx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(val[k]) {
			return fmt.Sprintf("slot %d: (%d, %#x), want (%d, %#x)", k, got.Idx[k], math.Float64bits(got.Val[k]), idx[k], math.Float64bits(val[k]))
		}
	}
	return ""
}

// assignRef is the merge an assign kernel replaces, written plainly: the
// target list's entries — u's value at list position k, or the scalar x when
// it is given — sorted by target and merged into c.
func assignRef(c, u *Vec[float64], x *float64, targets []int, accum func(float64, float64) float64) ([]int, []float64) {
	type assignment struct {
		target int
		val    float64
		has    bool // the source has an entry for this target
	}
	es := make([]assignment, len(targets))
	for k, i := range targets {
		es[k].target = i
		if x != nil {
			es[k].val, es[k].has = *x, true
		} else {
			es[k].val, es[k].has = u.Get(k)
		}
	}
	sort.Slice(es, func(p, q int) bool { return es[p].target < es[q].target })
	var idx []int
	var val []float64
	keep := func(i int, v float64) { idx, val = append(idx, i), append(val, v) }
	pc, pe := 0, 0
	for pc < len(c.Idx) || pe < len(es) {
		switch {
		case pe == len(es) || pc < len(c.Idx) && c.Idx[pc] < es[pe].target:
			keep(c.Idx[pc], c.Val[pc])
			pc++
		case pc == len(c.Idx) || es[pe].target < c.Idx[pc]:
			if es[pe].has {
				keep(es[pe].target, es[pe].val)
			}
			pe++
		default: // c and the source both at the target
			switch e := es[pe]; {
			case e.has && accum != nil:
				keep(e.target, accum(c.Val[pc], e.val))
			case e.has:
				keep(e.target, e.val)
			case accum != nil:
				keep(e.target, c.Val[pc])
			}
			pc++
			pe++
		}
	}
	return idx, val
}

// unionRef and intersectRef run the closure merges of unionRow and
// intersectRow into arrays of their bound and return what they wrote.
func unionRef(a, b *Vec[float64], add func(float64, float64) float64) ([]int, []float64) {
	idx, val := make([]int, len(a.Idx)+len(b.Idx)), make([]float64, len(a.Idx)+len(b.Idx))
	n := unionRow(nil, a.Idx, a.Val, b.Idx, b.Val, add, idx, val)
	return idx[:n], val[:n]
}

func intersectRef(a, b *Vec[float64], mul func(float64, float64) float64) ([]int, []float64) {
	idx, val := make([]int, min(len(a.Idx), len(b.Idx))), make([]float64, min(len(a.Idx), len(b.Idx)))
	n := intersectRow[float64, float64, float64](nil, a.Idx, a.Val, b.Idx, b.Val, mul, idx, val)
	return idx[:n], val[:n]
}

// TestQuickFullVectorPathsBitIdentical runs every full-vector array path
// against the merge it replaces — unionRow's and intersectRow's closure
// loops called directly, and assignRef — and requires the same structure and the same value bits: full,
// partial and empty operands on either side, n ∈ {0, 1, 4096}, operators
// that are not commutative (so an operand swapped by an array loop shows),
// signed zeros and NaN payloads, and assign over nil, an explicit identity
// and a shuffled list, each with and without an accumulator.
func TestQuickFullVectorPathsBitIdentical(t *testing.T) {
	add := func(x, y float64) float64 { return x/2 + y }
	mul := func(x, y float64) float64 { return x/2 - y }
	fills := []string{"full", "partial", "empty"}
	accums := map[string]func(float64, float64) float64{"nil": nil, "x/2+y": add}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ok := true
		check := func(label, diff string) {
			if diff != "" {
				t.Errorf("seed %d %s: %s", seed, label, diff)
				ok = false
			}
		}
		for _, n := range []int{0, 1, 4096} {
			identity := make([]int, n)
			for i := range identity {
				identity[i] = i
			}
			shuffled := rng.Perm(n)
			lists := map[string][]int{"nil": nil, "identity": identity, "shuffled": shuffled}
			for _, fa := range fills {
				for _, fb := range fills {
					a, b := fullFixture(rng, n, fa), fullFixture(rng, n, fb)
					label := fmt.Sprintf("n=%d a=%s b=%s", n, fa, fb)

					idx, val := unionRef(a, b, add)
					check(label+" VecUnion", sameBits(VecUnion(a, b, add, OpNone), n, idx, val))
					check(label+" WriteVec accum", sameBits(WriteVec(a, b, nil, add, OpNone, false), n, idx, val))
					idx, val = intersectRef(a, b, mul)
					check(label+" VecIntersect", sameBits(VecIntersect(a, b, mul, OpNone), n, idx, val))

					// Assign: a is the prior content c, b the source u.
					x := math.Float64frombits(0x7ff800000000beef)
					for ln, list := range lists {
						targets := list
						if targets == nil {
							targets = identity
						}
						for an, accum := range accums {
							l := fmt.Sprintf("%s list=%s accum=%s", label, ln, an)
							idx, val := assignRef(a, b, nil, targets, accum)
							check(l+" AssignExpandVec", sameBits(AssignExpandVec(a, b, list, accum, OpNone), n, idx, val))
							idx, val = assignRef(a, nil, &x, targets, accum)
							check(l+" AssignScalarExpandVec", sameBits(AssignScalarExpandVec(a, x, list, accum, OpNone), n, idx, val))
						}
					}
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestFullVectorKernelsAllocBudget pins the array paths the way
// TestDotMxVFullVectorAllocBudget pins the dot kernel: one worker, tracer
// off. Each makes only its output's Vec and Val, and nothing per
// position: its Idx is the full operand's, or the walked side's, shared
// (emit.go), and a full assign's is the shared identity list.
func TestFullVectorKernelsAllocBudget(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)

	rng := rand.New(rand.NewSource(9))
	const n = 256
	full, other, partial := fullFixture(rng, n, "full"), fullFixture(rng, n, "full"), fullFixture(rng, n, "partial")
	cases := []struct {
		name   string
		budget float64
		run    func()
	}{
		{"VecUnion/full+full", 2, func() { VecUnion(full, other, addF, OpNone) }},
		{"VecIntersect/full*partial", 2, func() { VecIntersect(full, partial, mulF, OpNone) }},
		{"AssignScalarExpandVec/nil", 2, func() { AssignScalarExpandVec(partial, 1.5, nil, addF, OpNone) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(100, tc.run); allocs != tc.budget {
				t.Errorf("%s allocates %.1f per call, budget %.0f — a new hot-path allocation needs pooling or a reviewed budget bump", tc.name, allocs, tc.budget)
			}
		})
	}
}

// TestSelectCSRAllocBudget pins SelectCSR to its result — the CSR header,
// Ptr, ColIdx, Val — plus the two ForWeighted body closures, whatever the
// row count: no row owns a slice of its own, and the keep flags come from
// the pool. A result released before the next call (as a freed or
// overwritten matrix's store is) gives the next one its Ptr, ColIdx and
// Val, which leaves the header and the closures. SelectBandCSR, the
// positional select, is held to the same counts.
func TestSelectCSRAllocBudget(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)

	tril := func(_ float64, i, j int) bool { return j < i }
	for _, n := range []int{8, 64, 512} {
		a := allocFixture(t, n)
		if allocs := testing.AllocsPerRun(20, func() { SelectCSR(a, tril) }); allocs != 6 {
			t.Errorf("SelectCSR on %d rows allocates %.1f per call, budget 6 — a new hot-path allocation needs pooling or a reviewed budget bump", n, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { SelectCSR(a, tril).Release() }); allocs != 3 {
			t.Errorf("SelectCSR on %d rows, its result released, allocates %.1f per call, budget 3 — the result's arrays did not come back from the pool", n, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { SelectBandCSR(a, BandTril, -1) }); allocs != 6 {
			t.Errorf("SelectBandCSR on %d rows allocates %.1f per call, budget 6 — a new hot-path allocation needs pooling or a reviewed budget bump", n, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { SelectBandCSR(a, BandTril, -1).Release() }); allocs != 3 {
			t.Errorf("SelectBandCSR on %d rows, its result released, allocates %.1f per call, budget 3 — the result's arrays did not come back from the pool", n, allocs)
		}
	}
}
