package sparse

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/pool"
)

// TestBuiltinLoopTable pins which (⊗, ⊕, domain) the kernels specialize:
// exactly the pairs lookup documents, over every domain entryFor maps, and
// nothing for a user operator or a domain without loops. The bit-identity of
// each against its closure loop is builtins' TestQuickBuiltinKernelsBitIdentical,
// which runs this same table through the operations.
func TestBuiltinLoopTable(t *testing.T) {
	selectors := []Opcode{OpFirst, OpSecond, OpPair}
	var want [][2]Opcode
	for _, m := range selectors {
		for _, a := range []Opcode{OpPlus, OpMin, OpMax} {
			want = append(want, [2]Opcode{m, a})
		}
	}
	want = append(want,
		[2]Opcode{OpTimes, OpPlus}, [2]Opcode{OpTimes, OpMin}, [2]Opcode{OpPlus, OpMin},
		[2]Opcode{OpPlus, OpMax}, [2]Opcode{OpMax, OpMin}, [2]Opcode{OpMin, OpMax})
	covered := map[[2]Opcode]bool{}
	for _, p := range want {
		covered[p] = true
	}
	// ∨ and ∧ stand for max and min (lattice); only bool has them.
	for m := OpNone; m <= OpLXor; m++ {
		for a := OpNone; a <= OpLXor; a++ {
			if got := lookup[float64](loopKey{mul: m, add: a}, true, true) != nil; got != covered[[2]Opcode{lattice(m), lattice(a)}] {
				t.Errorf("float64 %v.%v: specialized %v, want %v", a, m, got, !got)
			}
		}
	}
	// bool runs ∨ and ∧ as max and min: ⟨∨,∧⟩ is ⟨max,min⟩.
	for _, p := range [][2]Opcode{{OpLAnd, OpLOr}, {OpFirst, OpLOr}, {OpSecond, OpLAnd}, {OpLOr, OpLAnd}} {
		if lookup[boolean](loopKey{mul: p[0], add: p[1]}, true, true) == nil {
			t.Errorf("bool %v.%v: not specialized", p[1], p[0])
		}
	}
	if entryFor[float64](loopKey{mul: OpTimes}) != nil || entryFor[float64](loopKey{add: OpPlus}) != nil {
		t.Error("a ring with a user operator got loops")
	}
	if entryFor[uint8](loopKey{mul: OpTimes, add: OpPlus}) != nil {
		t.Error("uint8 got loops; none are compiled for it")
	}
	// An operand ⊗ reads but the kernel cannot hand over as []T (a mixed
	// domain only a user's operator could have) leaves the call on closures.
	if lookup[int64](loopKey{mul: OpFirst, add: OpPlus}, false, true) != nil || lookup[int64](loopKey{mul: OpSecond, add: OpPlus}, true, false) != nil {
		t.Error("loops that read an operand the kernel lacks")
	}
	if lookup[int64](loopKey{mul: OpPair, add: OpPlus}, false, false) == nil {
		t.Error("pair reads no operand and needs none")
	}
}

// TestDotStopsAtTerminal proves the early exit: each row's first term is the
// monoid's terminal value — a BFS row pulled over ⟨∨,∧⟩ whose first
// in-neighbour is on the frontier, a min row at −Inf, a max row at +Inf —
// and its later columns lie past the end of u, which a fold that read them
// would index out of range. The specialized loop stops at the first term;
// the closure loop would panic.
func TestDotStopsAtTerminal(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	const n = 4
	malformed := func(val func(p int) float64) *CSR[float64] {
		a := &CSR[float64]{NRows: 1, NCols: n, Ptr: []int{0, 3}, ColIdx: []int{1, n + 5, n + 9}}
		for p := range a.ColIdx {
			a.Val = append(a.Val, val(p))
		}
		return a
	}
	u := FromDense([]float64{7, math.Inf(-1), 7, 7}, []bool{true, true, true, true})
	min := Ring[float64, float64, float64]{MulOp: OpSecond, AddOp: OpMin}
	if w := min.DotMxV(malformed(func(int) float64 { return 1 }), u, nil); w.NVals() != 1 || !math.IsInf(w.Val[0], -1) {
		t.Fatalf("min row = %v, want −Inf", w.Val)
	}
	max := Ring[float64, float64, float64]{MulOp: OpFirst, AddOp: OpMax}
	if w := max.DotMxV(malformed(func(int) float64 { return math.Inf(1) }), u, nil); w.NVals() != 1 || !math.IsInf(w.Val[0], 1) {
		t.Fatalf("max row = %v, want +Inf", w.Val)
	}

	// The BFS row: Aᵀ's row for vertex 0 lists in-neighbours 1, then two
	// past the end; the frontier holds vertex 1.
	at := &CSR[bool]{NRows: 1, NCols: n, Ptr: []int{0, 3}, ColIdx: []int{1, n + 5, n + 9}, Val: []bool{true, true, true}}
	frontier := FromDense([]bool{false, true, false, false}, []bool{true, true, true, true})
	lorLand := Ring[bool, bool, bool]{MulOp: OpLAnd, AddOp: OpLOr}
	if w := lorLand.DotMxV(at, frontier, nil); w.NVals() != 1 || !w.Val[0] {
		t.Fatalf("BFS row = %v, want discovered", w.Val)
	}

	// The dense fold (foldDense, u stores every position) and the partial
	// fold (foldPresent, it does not) over int64 ⟨min, second⟩ — CC's pull —
	// and bool ⟨∨, ∧⟩. The row starts at column 0, which the partial u does
	// not store, then column 1, whose term is terminal; its later columns lie
	// past the end of u and of the partial fold's presence flags.
	all, partial := []bool{true, true, true, true}, []bool{false, true, false, true}
	cols := []int{0, 1, n + 5, n + 9}
	ai := &CSR[int64]{NRows: 1, NCols: n, Ptr: []int{0, 4}, ColIdx: cols, Val: []int64{1, 1, 1, 1}}
	minI := Ring[int64, int64, int64]{MulOp: OpSecond, AddOp: OpMin}
	for _, present := range [][]bool{all, partial} {
		u := FromDense([]int64{7, math.MinInt64, 7, 7}, present)
		if w := minI.DotMxV(ai, u, nil); w.NVals() != 1 || w.Val[0] != math.MinInt64 {
			t.Fatalf("int64 min row over u %v = %v, want MinInt64", present, w.Val)
		}
	}
	ab := &CSR[bool]{NRows: 1, NCols: n, Ptr: []int{0, 4}, ColIdx: cols, Val: []bool{true, true, true, true}}
	for _, present := range [][]bool{all, partial} {
		u := FromDense([]bool{false, true, false, false}, present)
		if w := lorLand.DotMxV(ab, u, nil); w.NVals() != 1 || !w.Val[0] {
			t.Fatalf("bool lor row over u %v = %v, want true", present, w.Val)
		}
	}
}

// TestBuiltinKernelsAllocBudget holds the specialized loops to the closure
// loops' budgets (TestDotMxVFullVectorAllocBudget, TestMaskedSpGEMMAllocBudget):
// picking a loop — the entry, the views of the operands, the loop set —
// allocates nothing. The push kernel's accumulator and the dot kernel's
// dense workspace come from the pool, so what is left is the result's Vec
// and Val.
func TestBuiltinKernelsAllocBudget(t *testing.T) {
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
	mask := &MatMask{NCols: a.NCols, EffPtr: a.Ptr, EffIdx: a.ColIdx, StrPtr: a.Ptr, StrIdx: a.ColIdx}
	scans := DotScans(a.NRows, a, mask)
	defer pool.PutInts(scans)
	r := Ring[float64, float64, float64]{Mul: mulF, Add: addF, MulOp: OpTimes, AddOp: OpPlus}
	sec := Ring[float64, float64, float64]{Mul: secondF, Add: addF, MulOp: OpSecond, AddOp: OpPlus}
	cases := []struct {
		name   string
		budget float64
		run    func()
	}{
		{"DotMxV/full", 2, func() { r.DotMxV(at, full, nil) }},
		{"DotMxV/partial", 2, func() { r.DotMxV(at, partial, nil) }},
		{"DotMxV/partial ⟨+, second⟩", 2, func() { sec.DotMxV(at, partial, nil) }},
		{"PushMxV", 2, func() { r.PushMxV(a, partial, nil) }},
		{"SpGEMM/mask-shaped", 6, func() { r.SpGEMM(a, at, mask) }},
		{"SpGEMMDotMasked", 6, func() { r.SpGEMMDotMasked(a, a, mask, scans) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // warm the pool shelves so steady state is measured
			if allocs := testing.AllocsPerRun(100, tc.run); allocs != tc.budget {
				t.Errorf("%s allocates %.1f per call, budget %.0f — a new hot-path allocation needs pooling or a reviewed budget bump", tc.name, allocs, tc.budget)
			}
		})
	}

	// A push past the split floor takes at four workers what it takes at
	// one: the scatter is one pass whatever the worker count. The fixture
	// stores 1.5 SplitWork edges, all of them pushed. A collection would
	// drop the shelved accumulator between calls, so none runs meanwhile.
	t.Run("PushMxV/past SplitWork", func(t *testing.T) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		big := allocFixture(t, int(math.Ceil(math.Sqrt(5*parallel.SplitWork))))
		u := NewVec[float64](big.NRows)
		for i := 0; i < big.NRows; i++ {
			u.Idx, u.Val = append(u.Idx, i), append(u.Val, float64(i)*0.25)
		}
		push := func() { r.PushMxV(big, u, nil) }
		push()
		one := testing.AllocsPerRun(10, push)
		parallel.SetMaxWorkers(4)
		defer parallel.SetMaxWorkers(1)
		push()
		if four := testing.AllocsPerRun(10, push); four != one || one != 2 {
			t.Errorf("PushMxV over %d edges allocates %.1f per call at one worker and %.1f at four, budget 2 at both", big.NNZ(), one, four)
		}
	})
}

func secondF(_, y float64) float64 { return y }

// The predefined min and max, written out for the closure side of
// FuzzPartialPull: the second operand wins only when strictly less
// (greater), so a NaN or a tie keeps the first.
func minF(x, y float64) float64 {
	if y < x {
		return y
	}
	return x
}

func maxF(x, y float64) float64 {
	if y > x {
		return y
	}
	return x
}

// FuzzPartialPull pulls a random partial u through a random A under the
// float64 rings whose loops read a partial u with no presence test —
// ⟨+, second⟩, ⟨min, second⟩, ⟨max, second⟩, ⟨max, min⟩, ⟨min, max⟩, the
// last two swapped too — and ⟨+, ×⟩, which keeps it, once with the loops
// and once with the same functions as closures. The values come from a
// set that holds ±0, a signalling and two quiet NaNs and ±Inf. Results must
// match bit for bit, but where both are NaN: a + that meets two NaNs may
// leave either payload, so there the quiet bit alone must match — which is
// what an absent 0 added to a lone signalling NaN would flip.
func FuzzPartialPull(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		f.Add(seed, uint8(40), uint8(50), uint8(1))
	}
	f.Add(int64(7), uint8(255), uint8(90), uint8(4))
	f.Add(int64(9), uint8(3), uint8(10), uint8(2))
	values := []float64{0, math.Copysign(0, -1), 1.5, -1.5, 0.25, 3,
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0x7ff8000000000001),
		math.Float64frombits(0x7ff8000000000002), math.Inf(1), math.Inf(-1)}
	rings := []Ring[float64, float64, float64]{
		{Mul: secondF, Add: addF, MulOp: OpSecond, AddOp: OpPlus},
		{Mul: secondF, Add: minF, MulOp: OpSecond, AddOp: OpMin},
		{Mul: secondF, Add: maxF, MulOp: OpSecond, AddOp: OpMax},
		{Mul: minF, Add: maxF, MulOp: OpMin, AddOp: OpMax},
		{Mul: maxF, Add: minF, MulOp: OpMax, AddOp: OpMin},
		{Mul: func(a, u float64) float64 { return minF(u, a) }, Add: maxF, MulOp: OpMin, AddOp: OpMax, Swapped: true},
		{Mul: func(a, u float64) float64 { return maxF(u, a) }, Add: minF, MulOp: OpMax, AddOp: OpMin, Swapped: true},
		{Mul: mulF, Add: addF, MulOp: OpTimes, AddOp: OpPlus},
	}
	f.Fuzz(func(t *testing.T, seed int64, size, fill, workers uint8) {
		parallel.SetMaxWorkersForTest(t, 1+int(workers%4))
		rng := rand.New(rand.NewSource(seed))
		nr, nc := 1+int(size%48), 1+int(size/3%48)
		var is, js []int
		var vs []float64
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				if rng.Intn(3) == 0 {
					is, js, vs = append(is, i), append(js, j), append(vs, values[rng.Intn(len(values))])
				}
			}
		}
		a, ok := BuildCSR(nr, nc, is, js, vs, nil)
		if !ok {
			t.Fatal("BuildCSR failed")
		}
		u := NewVec[float64](nc)
		for k := 0; k < nc; k++ {
			if rng.Intn(100) < int(fill%101) {
				u.Idx, u.Val = append(u.Idx, k), append(u.Val, values[rng.Intn(len(values))])
			}
		}
		for _, r := range rings {
			got := r.DotMxV(a, u, nil)
			want := Ring[float64, float64, float64]{Mul: r.Mul, Add: r.Add}.DotMxV(a, u, nil)
			if !slices.Equal(got.Idx, want.Idx) || len(got.Val) != len(want.Val) {
				t.Fatalf("%v.%v: entries %v compiled, %v closure", r.AddOp, r.MulOp, got.Idx, want.Idx)
			}
			for k, x := range got.Val {
				y := want.Val[k]
				if math.IsNaN(x) && math.IsNaN(y) {
					if quiet := uint64(1) << 51; math.Float64bits(x)&quiet != math.Float64bits(y)&quiet {
						t.Fatalf("%v.%v: entry %d = %x compiled, %x closure", r.AddOp, r.MulOp, k, math.Float64bits(x), math.Float64bits(y))
					}
				} else if math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("%v.%v: entry %d = %v compiled, %v closure", r.AddOp, r.MulOp, k, x, y)
				}
			}
		}
	})
}
