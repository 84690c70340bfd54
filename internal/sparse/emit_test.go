package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"graphblas/internal/parallel"
)

// dotRef is the pull product the way dotCore computed it before it emitted
// compactly: every row folded in ascending k into a dense row array beside
// presence flags, the flags gathered afterwards.
func dotRef(a *CSR[float64], u *Vec[float64], mask *VecMask) *Vec[float64] {
	dense, present := u.Dense()
	out, has := make([]float64, a.NRows), make([]bool, a.NRows)
	cur := MaskCursor{Mask: mask}
	for i := 0; i < a.NRows; i++ {
		if !cur.Allows(i) {
			continue
		}
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			k := a.ColIdx[p]
			if !present[k] {
				continue
			}
			if x := a.Val[p] * dense[k]; has[i] {
				out[i] += x
			} else {
				out[i], has[i] = x, true
			}
		}
	}
	idx, val := []int{}, []float64{}
	for i, h := range has {
		if h {
			idx, val = append(idx, i), append(val, out[i])
		}
	}
	return &Vec[float64]{N: a.NRows, Idx: idx, Val: val}
}

// dotFixture is an n×n matrix of about nnz entries with signed-zero and NaN
// payloads among its values, and with every seventh row empty unless full
// is set.
func dotFixture(rng *rand.Rand, n, nnz int, full bool) *CSR[float64] {
	payloads := []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001), 1e300}
	var is, js []int
	var vs []float64
	for i := 0; i < n; i++ {
		if !full && i%7 == 3 {
			continue
		}
		for j := 0; j < n; j++ {
			if full && j == i || rng.Intn(n*n) < nnz {
				v := rng.NormFloat64()
				if rng.Intn(20) == 0 {
					v = payloads[rng.Intn(len(payloads))]
				}
				is, js, vs = append(is, i), append(js, j), append(vs, v)
			}
		}
	}
	a, ok := BuildCSR(n, n, is, js, vs, nil)
	if !ok {
		panic("BuildCSR failed")
	}
	return a
}

// TestDotEmitsCompactBitIdentical holds the compact dot — each chunk writing
// its rows' entries straight into the result, counted first over a full u
// and joined over a partial one — to the dense-row reference it replaced:
// the same structure and the same value bits, in storage sized for the
// result (a full result's positions the shared identity list). It
// runs the closure loop and the ⟨+,×⟩ loop over
// full, partial, sparse and empty u, under no mask, a mask and its
// complement, on matrices with empty rows, one with none (a full result)
// and one with no entries, at one worker and at two and three across chunk
// boundaries (over 2 048 entries, so the rows split).
func TestDotEmitsCompactBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const n = 300
	mats := map[string]*CSR[float64]{
		"empty-rows": dotFixture(rng, n, 6000, false),
		"no-empty":   dotFixture(rng, n, 6000, true),
		"no-entries": NewCSR[float64](n, n),
	}
	us := map[string]*Vec[float64]{
		"full": randFloatVec(rng, n, 1), "partial": randFloatVec(rng, n, 0.5),
		"sparse": randFloatVec(rng, n, 0.02), "empty": NewVec[float64](n),
	}
	rings := map[string]Ring[float64, float64, float64]{
		"closure":    ring(mulF, addF),
		"plus.times": {Mul: mulF, Add: addF, MulOp: OpTimes, AddOp: OpPlus},
	}
	for _, workers := range []int{1, 2, 3} {
		parallel.SetMaxWorkersForTest(t, workers)
		for mn, a := range mats {
			for un, u := range us {
				for kn, mask := range maskVariants(rng, n) {
					want := dotRef(a, u, mask)
					for rn, r := range rings {
						label := fmt.Sprintf("workers=%d %s u=%s %s %s", workers, mn, un, kn, rn)
						got := r.DotMxV(a, u, mask)
						requireBitIdentical(t, label, got, want)
						requireExact(t, label, got)
					}
				}
			}
		}
	}
}

// requireExact fails unless v's Idx is exactly its size and its Val no more
// than the pool's power-of-two class of that size, and a full v's positions
// are the shared identity list.
func requireExact[T any](t *testing.T, label string, v *Vec[T]) {
	t.Helper()
	if cap(v.Idx) != len(v.Idx) || cap(v.Val) > 1 && cap(v.Val) >= 2*len(v.Val) {
		t.Fatalf("%s: Idx %d/%d, Val %d/%d (len/cap): not sized for the result", label, len(v.Idx), cap(v.Idx), len(v.Val), cap(v.Val))
	}
	if v.Full() && v.N > 0 && unsafe.SliceData(v.Idx) != unsafe.SliceData(identity(v.N)) {
		t.Fatalf("%s: full, but its positions are not the identity list", label)
	}
}

// overlaps reports whether two slices' arrays, to their capacity, share
// any memory.
func overlaps[A, B any](x []A, y []B) bool {
	if cap(x) == 0 || cap(y) == 0 {
		return false
	}
	x0 := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	y0 := uintptr(unsafe.Pointer(unsafe.SliceData(y)))
	x1 := x0 + uintptr(cap(x))*unsafe.Sizeof(x[:1][0])
	y1 := y0 + uintptr(cap(y))*unsafe.Sizeof(y[:1][0])
	return x0 < y1 && y0 < x1
}

// kernelInputs is what kernelOutputs runs on: a full vector, two partial
// ones, an index list and a matrix large enough that the dot and push
// kernels split into chunks at two workers.
type kernelInputs struct {
	full, part, other *Vec[float64]
	list              []int
	a                 *CSR[float64]
}

func newKernelInputs() kernelInputs {
	rng := rand.New(rand.NewSource(13))
	const n = 300
	in := kernelInputs{part: randFloatVec(rng, n, 0.4), other: randFloatVec(rng, n, 0.6), a: dotFixture(rng, n, 9000, false)}
	full := randFloatVec(rng, n, 1)
	in.full, _ = BuildVec(n, full.Idx, full.Val, nil)
	for _, i := range rng.Perm(n)[:n/3] {
		in.list = append(in.list, i)
	}
	return in
}

func (in kernelInputs) vectors() []*Vec[float64] { return []*Vec[float64]{in.full, in.part, in.other} }

// kernelOutputs runs every kernel that produces a vector on in, at two
// workers: the element-wise, apply, select, extract, assign and write-back
// kernels, and dot and push (serial and parallel).
func kernelOutputs(t *testing.T, in kernelInputs) map[string]*Vec[float64] {
	parallel.SetMaxWorkersForTest(t, 2)
	full, part, other, list, a := in.full, in.part, in.other, in.list, in.a
	neg := func(x float64) float64 { return -x }
	mask := maskVariants(rand.New(rand.NewSource(5)), full.N)["mask"]
	spec := Ring[float64, float64, float64]{Mul: mulF, Add: addF, MulOp: OpTimes, AddOp: OpPlus}
	dense, present := part.Dense()
	outs := map[string]*Vec[float64]{
		"VecUnion/full+part":         VecUnion(full, part, addF, OpNone),
		"VecUnion/part+full":         VecUnion(part, full, addF, OpNone),
		"VecUnion/full+full":         VecUnion(full, full, addF, OpNone),
		"VecUnion/part+other":        VecUnion(part, other, addF, OpNone),
		"VecIntersect/full*part":     VecIntersect(full, part, mulF, OpNone),
		"VecIntersect/part*full":     VecIntersect(part, full, mulF, OpNone),
		"VecIntersect/part*other":    VecIntersect(part, other, mulF, OpNone),
		"VecUnionFill":               VecUnionFill(part, other, mulF, 1, 2),
		"VecApply/full":              VecApply(full, neg),
		"VecApply/part":              VecApply(part, neg),
		"VecApplyIndex":              VecApplyIndex(part, func(x float64, i int) float64 { return x + float64(i) }),
		"VecSelect/all":              VecSelect(part, func(float64, int) bool { return true }),
		"VecSelect/some":             VecSelect(part, func(x float64, _ int) bool { return x > 0 }),
		"ExtractVec/full":            ExtractVec(full, list),
		"ExtractVec/part":            ExtractVec(part, list),
		"AssignExpandVec/all":        AssignExpandVec(part, full, nil, nil, OpNone),
		"AssignExpandVec/all+accum":  AssignExpandVec(part, full, nil, addF, OpNone),
		"AssignExpandVec/all-part":   AssignExpandVec(other, part, nil, nil, OpNone),
		"AssignExpandVec/list+accum": AssignExpandVec(part, other, list, addF, OpNone),
		"AssignScalarExpandVec/all":  AssignScalarExpandVec(part, 3, nil, addF, OpNone),
		"AssignScalarExpandVec/list": AssignScalarExpandVec(part, 3, list, nil, OpNone),
		"MaskMergeVec":               MaskMergeVec(part, other, mask, false),
		"WriteVec/accum":             WriteVec(part, other, nil, addF, OpNone, false),
		"ApplyVecTuples":             ApplyVecTuples(part, []Tuple[float64]{{I: 1, V: 4}, {I: 2, Del: true}}),
		"Clone/full":                 full.Clone(),
		"Clone/part":                 part.Clone(),
		"FromDense":                  FromDense(dense, present),
		"ReduceRowsCSR":              ReduceRowsCSR(a, addF, OpNone, nil),
		"ExtractColCSR":              ExtractColCSR(a, list, 4),
		"DotMxV/full":                spec.DotMxV(a, full, nil),
		"DotMxV/part":                spec.DotMxV(a, part, nil),
		"DotMxV/closure+mask":        DotMxV(a, part, mulF, addF, mask),
		"PushMxV/serial":             spec.PushMxV(a, &Vec[float64]{N: part.N, Idx: part.Idx[:3], Val: part.Val[:3]}, nil),
		"PushMxV/parallel":           spec.PushMxV(a, part, nil),
		"PushMxV/closure+mask":       PushMxV(a, full, mulF, addF, mask),
	}
	return outs
}

// TestKernelOutputsNeverShareVal is the contract of results written once
// (emit.go): no output's Val shares memory with an input's Idx or Val, an
// output whose Idx shares an input's is clipped to its length (an append
// on either side reallocates), and a full output's positions are the shared
// identity list.
func TestKernelOutputsNeverShareVal(t *testing.T) {
	in := newKernelInputs()
	for name, w := range kernelOutputs(t, in) {
		for k, v := range in.vectors() {
			if overlaps(w.Val, v.Val) || overlaps(w.Val, v.Idx) {
				t.Errorf("%s: Val shares memory with input %d", name, k)
			}
			if overlaps(w.Idx, v.Idx) && cap(w.Idx) != len(w.Idx) {
				t.Errorf("%s: Idx shares input %d's and has room past its length (%d/%d)", name, k, len(w.Idx), cap(w.Idx))
			}
		}
		if overlaps(w.Val, in.a.Val) || overlaps(w.Val, in.a.ColIdx) {
			t.Errorf("%s: Val shares memory with the matrix", name)
		}
		if w.Full() && w.N > 0 && unsafe.SliceData(w.Idx) != unsafe.SliceData(identity(w.N)) {
			t.Errorf("%s: full, but its positions are not the identity list", name)
		}
	}
}

// TestKernelsNeverWriteInputs runs every vector kernel, then writes into
// every output — each value overwritten, an entry appended to Idx and to
// Val — and requires every input, the matrix and the identity list to hold
// the bits they held before.
func TestKernelsNeverWriteInputs(t *testing.T) {
	in := newKernelInputs()
	sum := func() uint64 {
		var h uint64 = 14695981039346656037
		mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
		for _, v := range in.vectors() {
			for k := range v.Idx {
				mix(uint64(v.Idx[k]))
				mix(math.Float64bits(v.Val[k]))
			}
		}
		for p := range in.a.ColIdx {
			mix(uint64(in.a.ColIdx[p]))
			mix(math.Float64bits(in.a.Val[p]))
		}
		for _, i := range identity(in.full.N) {
			mix(uint64(i))
		}
		return h
	}
	before := sum()
	for _, w := range kernelOutputs(t, in) {
		for k := range w.Val {
			w.Val[k] = math.Float64frombits(0x7ff800000000dead)
		}
		w.Idx = append(w.Idx, -1)
		w.Val = append(w.Val, -1)
	}
	if after := sum(); after != before {
		t.Fatal("writing into the kernels' outputs changed an input")
	}
}
