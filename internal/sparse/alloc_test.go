package sparse

import (
	"testing"

	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/pool"
)

// TestRecycledOutputsAllocBudget is the allocation-regression gate of the
// vector kernels in the steady state store recycling gives them, extending
// the obs package's TestDisabledPathAllocFree contract: with tracing
// disabled, one worker, and the previous result released the way
// internal/core releases a superseded store (Vec.Release: its values back
// on the free list, its hold on its positions dropped, so a list it drew
// goes back too), each kernel's per-call allocation count is pinned
// exactly. What remains is the result's Vec. Everything else (values,
// index lists, presence flags, prefix sums, the push accumulator, the dot
// kernel's dense workspace) comes from internal/pool and must not show up
// here. A budget increase in a review means a new allocation crept onto the
// hot path; justify it or pool it.
func TestRecycledOutputsAllocBudget(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)

	const n = 64
	a := allocFixture(t, n)
	holed := allocFixtureRows(t, n, func(i int) bool { return i%4 != 0 }) // a partial dot result
	full, part := NewVec[float64](n), NewVec[float64](n)
	for i := 0; i < n; i++ {
		full.Idx, full.Val = append(full.Idx, i), append(full.Val, float64(i)*0.25)
		if i%3 != 0 {
			part.Idx, part.Val = append(part.Idx, i), append(part.Val, float64(i))
		}
	}
	neg := func(x float64) float64 { return -x }
	r := Ring[float64, float64, float64]{Mul: mulF, Add: addF, MulOp: OpTimes, AddOp: OpPlus}

	cases := []struct {
		name   string
		budget float64
		run    func() *Vec[float64]
	}{
		// The Vec; the input's Idx is shared.
		{"VecApply", 1, func() *Vec[float64] { return VecApply(part, neg) }},
		// The Vec; the walked side's Idx is shared.
		{"VecIntersect/full", 1, func() *Vec[float64] { return VecIntersect(part, full, mulF, OpNone) }},
		// The Vec; the merged Idx is drawn from the pool.
		{"VecUnion/partial", 1, func() *Vec[float64] { return VecUnion(part, part, addF, OpNone) }},
		// The Vec; the result is full, its positions the identity list.
		{"AssignScalarExpandVec/all", 1, func() *Vec[float64] { return AssignScalarExpandVec(part, 2, nil, nil, OpNone) }},
		{"DotMxV/full", 1, func() *Vec[float64] { return r.DotMxV(a, full, nil) }},
		{"DotMxV/partial", 1, func() *Vec[float64] { return r.DotMxV(a, part, nil) }},
		// The Vec; the rows that emit are written into a pooled list.
		{"DotMxV/empty-rows", 1, func() *Vec[float64] { return r.DotMxV(holed, full, nil) }},
		{"PushMxV", 1, func() *Vec[float64] { return r.PushMxV(a, part, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			step := func() { tc.run().Release() }
			step() // warm the pool shelves so steady state is measured
			if allocs := testing.AllocsPerRun(100, step); allocs != tc.budget {
				t.Errorf("%s allocates %.1f per call, budget %.0f — a new hot-path allocation needs pooling or a reviewed budget bump", tc.name, allocs, tc.budget)
			}
		})
	}
}

// allocFixture is the deterministic ~30%-dense n×n matrix both budget tests
// run on, built once so AllocsPerRun measures only the kernels.
func allocFixture(t *testing.T, n int) *CSR[float64] {
	t.Helper()
	return allocFixtureRows(t, n, func(int) bool { return true })
}

// allocFixtureRows is allocFixture with only the rows keep admits stored.
func allocFixtureRows(t *testing.T, n int, keep func(i int) bool) *CSR[float64] {
	t.Helper()
	var is, js []int
	var vs []float64
	for i := 0; i < n; i++ {
		if !keep(i) {
			continue
		}
		for j := 0; j < n; j++ {
			if (i*31+j*17)%10 < 3 {
				is = append(is, i)
				js = append(js, j)
				vs = append(vs, float64(i-j)+0.5)
			}
		}
	}
	a, ok := BuildCSR(n, n, is, js, vs, nil)
	if !ok {
		t.Fatal("BuildCSR failed")
	}
	return a
}

// TestMaskedSpGEMMAllocBudget pins the two mask-shaped SpGEMM kernels the
// same way: one worker, tracer off, warm pool. What remains is the
// intrinsic output — the CSR header, Ptr, ColIdx, Val — and the two
// ForWeighted body closures (kernel loop, compaction). The slot and
// position tables, the presence flags, the nnz(M)-long value slab and
// DotScans' row counts and DotMaskedWins' column counts come from
// internal/pool and must not show.
// A result released before the next call (as a freed or overwritten
// matrix's store is) gives the next one its Ptr, ColIdx and Val, which
// leaves the header and the closures.
func TestMaskedSpGEMMAllocBudget(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)

	a := allocFixture(t, 64)
	at := a.Transpose()
	mask := &MatMask{NCols: a.NCols, EffPtr: a.Ptr, EffIdx: a.ColIdx, StrPtr: a.Ptr, StrIdx: a.ColIdx}
	scans := DotScans(a.NRows, a, mask)
	defer pool.PutInts(scans)
	cases := []struct {
		name   string
		budget float64
		run    func()
	}{
		{"SpGEMM/mask-shaped", 6, func() { SpGEMM(a, at, mulF, addF, mask) }},
		{"SpGEMMDotMasked", 6, func() { ring(mulF, addF).SpGEMMDotMasked(a, a, mask, scans) }},
		{"SpGEMM/mask-shaped/released", 3, func() { SpGEMM(a, at, mulF, addF, mask).Release() }},
		{"SpGEMMDotMasked/released", 3, func() { ring(mulF, addF).SpGEMMDotMasked(a, a, mask, scans).Release() }},
		{"DotScans+DotMaskedWins", 0, func() {
			s := DotScans(a.NRows, a, mask)
			DotMaskedWins(a, a, nil, mask, s)
			pool.PutInts(s)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // warm the pool shelves so steady state is measured
			if allocs := testing.AllocsPerRun(100, tc.run); allocs != tc.budget {
				t.Errorf("%s allocates %.1f per call, budget %.0f — a new hot-path allocation needs pooling or a reviewed budget bump", tc.name, allocs, tc.budget)
			}
		})
	}
}

// TestDotMxVFullVectorAllocBudget pins DotMxV on a full input vector — what
// the engine pulls CC's label vector and a full PageRank share through: u.Val
// is read in place, so neither the dense value workspace nor a presence
// array is built, and the result is counted before it is written. What
// remains is the result's Vec and Val: every row stores an entry, so its
// positions are the identity list. A partial vector adds the one
// domain-generic workspace; its presence flags and the scratch positions
// its rows are joined through are pooled. The direction rule itself
// allocates nothing.
func TestDotMxVFullVectorAllocBudget(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)

	const n = 64
	a := allocFixture(t, n)
	at := a.Transpose()
	full, partial := NewVec[float64](n), NewVec[float64](n)
	for i := 0; i < n; i++ {
		full.Idx, full.Val = append(full.Idx, i), append(full.Val, float64(i)*0.25)
		if i%3 != 0 {
			partial.Idx, partial.Val = append(partial.Idx, i), append(partial.Val, float64(i))
		}
	}
	cases := []struct {
		name   string
		budget float64
		run    func()
	}{
		{"DotMxV/full", 2, func() { DotMxV(at, full, mulF, addF, nil) }},
		{"DotMxV/partial", 2, func() { DotMxV(at, partial, mulF, addF, nil) }},
		{"PullWins", 0, func() { (Ring[float64, float64, float64]{}).PullWins(a.Ptr, full.Idx, at, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // warm the pool shelves so steady state is measured
			if allocs := testing.AllocsPerRun(100, tc.run); allocs != tc.budget {
				t.Errorf("%s allocates %.1f per call, budget %.0f — a new hot-path allocation needs pooling or a reviewed budget bump", tc.name, allocs, tc.budget)
			}
		})
	}
}

// TestElementwiseAllocBudget pins the element-wise kernels' compiled loops
// (builtin_vec.go) the way TestRecycledOutputsAllocBudget pins the closure
// loops: one worker, tracer off, the previous result released. A merge
// writes by position into arrays drawn from the pool at its operands'
// bound, so what remains is the result's Vec; a merge that appended into
// arrays it grew would allocate per growth. A reduce allocates nothing. An
// assign to listed targets copies c's runs around them into pooled arrays
// and builds no list of entries, so it too leaves the Vec alone — over
// ascending targets or a shuffled list, whose sorted copy is pooled.
func TestElementwiseAllocBudget(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)

	const n = 64
	full, part, other := NewVec[float64](n), NewVec[float64](n), NewVec[float64](n)
	for i := 0; i < n; i++ {
		full.Idx, full.Val = append(full.Idx, i), append(full.Val, float64(i)*0.25)
		if i%3 != 0 {
			part.Idx, part.Val = append(part.Idx, i), append(part.Val, float64(i))
		}
		if i%2 == 0 {
			other.Idx, other.Val = append(other.Idx, i), append(other.Val, float64(i)+0.5)
		}
	}
	src := NewVec[float64](3)
	src.Idx, src.Val = []int{0, 2}, []float64{7, 9}
	one, sorted, shuffled := []int{7}, []int{5, 30, 61}, []int{61, 5, 30}
	var sink float64
	cases := []struct {
		name   string
		budget float64
		run    func() *Vec[float64]
	}{
		{"VecUnion/partial", 1, func() *Vec[float64] { return VecUnion(part, other, addF, OpPlus) }},
		{"VecUnion/full", 1, func() *Vec[float64] { return VecUnion(full, other, addF, OpPlus) }},
		{"VecIntersect/partial", 1, func() *Vec[float64] { return VecIntersect(part, other, mulF, OpTimes) }},
		{"VecIntersect/full", 1, func() *Vec[float64] { return VecIntersect(other, full, mulF, OpTimes) }},
		{"VecReduce", 0, func() *Vec[float64] { sink, _ = VecReduce(part, addF, OpPlus, 0, nil); return nil }},
		{"WriteVec/accum", 1, func() *Vec[float64] { return WriteVec(part, other, nil, addF, OpPlus, false) }},
		{"AssignScalarExpandVec/all+accum", 1, func() *Vec[float64] { return AssignScalarExpandVec(part, 2, nil, addF, OpPlus) }},
		{"AssignScalarExpandVec/one+accum", 1, func() *Vec[float64] { return AssignScalarExpandVec(part, 2, one, addF, OpPlus) }},
		{"AssignScalarExpandVec/shuffled", 1, func() *Vec[float64] { return AssignScalarExpandVec(part, 2, shuffled, nil, OpNone) }},
		{"AssignExpandVec/sorted+accum", 1, func() *Vec[float64] { return AssignExpandVec(part, src, sorted, addF, OpPlus) }},
		{"AssignExpandVec/shuffled", 1, func() *Vec[float64] { return AssignExpandVec(part, src, shuffled, nil, OpNone) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			step := func() {
				if w := tc.run(); w != nil {
					w.Release()
				}
			}
			step() // warm the pool shelves so steady state is measured
			if allocs := testing.AllocsPerRun(100, step); allocs != tc.budget {
				t.Errorf("%s allocates %.1f per call, budget %.0f — a new hot-path allocation needs pooling or a reviewed budget bump", tc.name, allocs, tc.budget)
			}
		})
	}
	_ = sink
}
