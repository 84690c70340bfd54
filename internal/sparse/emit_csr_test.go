package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"

	"graphblas/internal/obs"
	"graphblas/internal/parallel"
)

// dmat is the dense reference model of a float64 matrix: has[i*nc+j] says
// whether (i, j) is stored and val[i*nc+j] holds its value.
type dmat struct {
	nr, nc int
	has    []bool
	val    []float64
}

func newDmat(nr, nc int) dmat {
	return dmat{nr: nr, nc: nc, has: make([]bool, nr*nc), val: make([]float64, nr*nc)}
}

func denseOf(m *CSR[float64]) dmat {
	d := newDmat(m.NRows, m.NCols)
	for i := 0; i < m.NRows; i++ {
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			d.put(i, m.ColIdx[p], m.Val[p])
		}
	}
	return d
}

func (d dmat) clone() dmat {
	return dmat{nr: d.nr, nc: d.nc, has: slices.Clone(d.has), val: slices.Clone(d.val)}
}

func (d dmat) at(i, j int) (float64, bool) { return d.val[i*d.nc+j], d.has[i*d.nc+j] }

func (d dmat) put(i, j int, v float64) { d.val[i*d.nc+j], d.has[i*d.nc+j] = v, true }

func (d dmat) del(i, j int) { d.has[i*d.nc+j] = false }

// cells builds the nr×nc model whose cell (i, j) is f(i, j).
func cells(nr, nc int, f func(i, j int) (float64, bool)) dmat {
	d := newDmat(nr, nc)
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if v, ok := f(i, j); ok {
				d.put(i, j, v)
			}
		}
	}
	return d
}

// requireCSRBits fails unless m is a well-formed CSR storing exactly the
// model's entries, each value bit for bit, and its arrays are sized for it.
func requireCSRBits(t *testing.T, label string, m *CSR[float64], want dmat) {
	t.Helper()
	checkCSRInvariants(t, m, label)
	if m.NRows != want.nr || m.NCols != want.nc {
		t.Fatalf("%s: shape %d×%d, want %d×%d", label, m.NRows, m.NCols, want.nr, want.nc)
	}
	if cap(m.ColIdx) != len(m.ColIdx) || cap(m.Val) != len(m.Val) {
		t.Fatalf("%s: ColIdx %d/%d, Val %d/%d (len/cap): not sized for the result", label, len(m.ColIdx), cap(m.ColIdx), len(m.Val), cap(m.Val))
	}
	got := denseOf(m)
	for k := range want.has {
		if got.has[k] != want.has[k] || got.has[k] && math.Float64bits(got.val[k]) != math.Float64bits(want.val[k]) {
			t.Fatalf("%s: (%d,%d) holds %v/%x (stored %v), want %v/%x (stored %v)", label, k/want.nc, k%want.nc,
				got.val[k], math.Float64bits(got.val[k]), got.has[k], want.val[k], math.Float64bits(want.val[k]), want.has[k])
		}
	}
}

// payloads are the values whose bits a fold that reorders, or an operand
// swapped, would change: signed zeros and a NaN with a payload.
var payloads = []float64{math.Copysign(0, -1), 0, math.Float64frombits(0x7ff8000000000001), 1e300}

// csrFixture is an nr×nc matrix in which about one row in six is empty and
// one in eight stores every column, the rest holding a fraction p of their
// columns, with values from val.
func csrFixture(rng *rand.Rand, nr, nc int, p float64, val func() float64) *CSR[float64] {
	var is, js []int
	var vs []float64
	for i := 0; i < nr; i++ {
		kind := rng.Intn(24)
		for j := 0; j < nc; j++ {
			if kind < 4 || kind >= 7 && rng.Float64() >= p {
				continue
			}
			is, js, vs = append(is, i), append(js, j), append(vs, val())
		}
	}
	m, ok := BuildCSR(nr, nc, is, js, vs, nil)
	if !ok {
		panic("BuildCSR failed")
	}
	return m
}

// floatVals draws normal values with a payload one time in twelve; intVals
// draws small integers and signed zeros, whose sums are exact in any order.
func floatVals(rng *rand.Rand) func() float64 {
	return func() float64 {
		if rng.Intn(12) == 0 {
			return payloads[rng.Intn(len(payloads))]
		}
		return rng.NormFloat64()
	}
}

func intVals(rng *rand.Rand) func() float64 {
	return func() float64 {
		if rng.Intn(12) == 0 {
			return payloads[rng.Intn(2)]
		}
		return float64(rng.Intn(19) - 9)
	}
}

// matMaskOf reads m as a mask: every stored entry is in its structure, the
// nonzero ones (NaN included) are true.
func matMaskOf(m *CSR[float64], comp bool) *MatMask {
	mm := &MatMask{NCols: m.NCols, StrPtr: m.Ptr, StrIdx: m.ColIdx, EffPtr: make([]int, m.NRows+1), Comp: comp}
	for i := 0; i < m.NRows; i++ {
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			if m.Val[p] != 0 {
				mm.EffIdx = append(mm.EffIdx, m.ColIdx[p])
			}
		}
		mm.EffPtr[i+1] = len(mm.EffIdx)
	}
	return mm
}

func (m *MatMask) allowsCell(i, j int) bool {
	if m == nil {
		return true
	}
	if m.Comp {
		return !slices.Contains(m.StrRow(i), j)
	}
	return slices.Contains(m.EffRow(i), j)
}

func vecAllows(m *VecMask, i int) bool {
	if m == nil {
		return true
	}
	if m.Comp {
		return !slices.Contains(m.Structure, i)
	}
	return slices.Contains(m.Idx, i)
}

// productRef folds each output entry's terms in ascending k, the first
// stored and the others added, over the cells the mask allows.
func productRef(a, b dmat, mask *MatMask) dmat {
	return cells(a.nr, b.nc, func(i, j int) (float64, bool) {
		var acc float64
		hit := false
		for k := 0; k < a.nc; k++ {
			av, ah := a.at(i, k)
			bv, bh := b.at(k, j)
			if !ah || !bh {
				continue
			}
			if x := av * bv; hit {
				acc += x
			} else {
				acc, hit = x, true
			}
		}
		return acc, hit && mask.allowsCell(i, j)
	})
}

// mergeRef is the element-wise merge: op on the cells both store, one side's
// value (or only, when nil) on the cells one does.
func mergeRef(a, b dmat, op func(x, y float64) float64, onlyA, onlyB func(float64) float64) dmat {
	return cells(a.nr, a.nc, func(i, j int) (float64, bool) {
		av, ah := a.at(i, j)
		bv, bh := b.at(i, j)
		switch {
		case ah && bh:
			return op(av, bv), true
		case ah && onlyA != nil:
			return onlyA(av), true
		case bh && onlyB != nil:
			return onlyB(bv), true
		}
		return 0, false
	})
}

func same(x float64) float64 { return x }

// maskMergeRef writes z into c: allowed cells take z's entry or none, the
// others keep c's unless replace.
func maskMergeRef(c, z dmat, allows func(i, j int) bool, replace bool) dmat {
	return cells(c.nr, c.nc, func(i, j int) (float64, bool) {
		if allows(i, j) {
			return z.at(i, j)
		}
		if replace {
			return 0, false
		}
		return c.at(i, j)
	})
}

// assignCSRRef assigns src over rows × cols of c: a cell src stores takes it
// (accumulated into c's under accum); one it does not is deleted without
// accum and kept with it.
func assignCSRRef(c dmat, src func(r, q int) (float64, bool), rows, cols []int, accum func(x, y float64) float64) dmat {
	z := c.clone()
	for r, i := range rows {
		for q, j := range cols {
			sv, sh := src(r, q)
			cv, ch := c.at(i, j)
			switch {
			case sh && ch && accum != nil:
				z.put(i, j, accum(cv, sv))
			case sh:
				z.put(i, j, sv)
			case accum == nil:
				z.del(i, j)
			}
		}
	}
	return z
}

// csrCase is one kernel run on one fixture, with its dense reference.
type csrCase struct {
	name string
	run  func() *CSR[float64]
	want dmat
}

// csrCases lists every kernel that writes its rows through EmitCSR, on
// fixtures of nr rows and nc columns.
func csrCases(rng *rand.Rand, nr, nc int, p float64) []csrCase {
	fv := floatVals(rng)
	a, a2, c := csrFixture(rng, nr, nc, p, fv), csrFixture(rng, nr, nc, p, fv), csrFixture(rng, nr, nc, p, fv)
	b := csrFixture(rng, nc, nc, p, fv)
	// A one-column product's rows all end and start at column 0, where a
	// row written into the arena after another could run into it.
	col := csrFixture(rng, nc, 1, p, fv)
	mask := matMaskOf(csrFixture(rng, nr, nc, 0.5, intVals(rng)), false)
	comp := &MatMask{NCols: mask.NCols, EffPtr: mask.EffPtr, EffIdx: mask.EffIdx, StrPtr: mask.StrPtr, StrIdx: mask.StrIdx, Comp: true}
	A, A2, C, B := denseOf(a), denseOf(a2), denseOf(c), denseOf(b)
	r := ring(mulF, addF)
	fill := func(x, y float64) float64 { return x - 2*y }
	alpha, beta := 0.5, math.Copysign(0, -1)

	rows := rng.Perm(nr)[:(nr+1)/2]
	cols := rng.Perm(nc)[:(nc+1)/2]
	var xrows, xcols []int // extract's lists, with repeats
	for k := 0; k < nr; k++ {
		xrows = append(xrows, rng.Intn(nr))
	}
	for k := 0; k < nc; k++ {
		xcols = append(xcols, rng.Intn(nc))
	}
	sub := csrFixture(rng, len(rows), len(cols), p, fv)
	Sub := denseOf(sub)
	ur, uc := randFloatVec(rng, len(cols), 0.6), randFloatVec(rng, len(rows), 0.6)
	uAt := func(u *Vec[float64]) func(r, q int) (float64, bool) {
		return func(r, q int) (float64, bool) { return u.Get(q + r) }
	}
	vmRow, vmCol := maskVariants(rng, nc)["mask"], maskVariants(rng, nr)["comp"]
	i, j := rng.Intn(nr), rng.Intn(nc)
	x := math.Copysign(0, -1)

	cs := []csrCase{
		{"SpGEMM", func() *CSR[float64] { return r.SpGEMM(a, b, nil) }, productRef(A, B, nil)},
		{"SpGEMM/comp", func() *CSR[float64] { return r.SpGEMM(a, b, comp) }, productRef(A, B, comp)},
		{"SpGEMM/one-col", func() *CSR[float64] { return r.SpGEMM(a, col, nil) }, productRef(A, denseOf(col), nil)},
		{"UnionCSR", func() *CSR[float64] { return UnionCSR(a, a2, addF, OpNone) }, mergeRef(A, A2, addF, same, same)},
		{"IntersectCSR", func() *CSR[float64] { return IntersectCSR(a, a2, mulF, OpNone) }, mergeRef(A, A2, mulF, nil, nil)},
		{"UnionFillCSR", func() *CSR[float64] { return UnionFillCSR(a, a2, fill, alpha, beta) },
			mergeRef(A, A2, fill, func(v float64) float64 { return fill(v, beta) }, func(v float64) float64 { return fill(alpha, v) })},
		{"ExtractCSR", func() *CSR[float64] { return ExtractCSR(a, xrows, xcols) },
			cells(len(xrows), len(xcols), func(r, q int) (float64, bool) { return A.at(xrows[r], xcols[q]) })},
		{"AssignExpandCSR", func() *CSR[float64] { return AssignExpandCSR(c, sub, rows, cols, nil) }, assignCSRRef(C, Sub.at, rows, cols, nil)},
		{"AssignExpandCSR/accum", func() *CSR[float64] { return AssignExpandCSR(c, sub, rows, cols, addF) }, assignCSRRef(C, Sub.at, rows, cols, addF)},
		{"AssignScalarExpandCSR/accum", func() *CSR[float64] { return AssignScalarExpandCSR(c, x, rows, cols, addF) },
			assignCSRRef(C, func(int, int) (float64, bool) { return x, true }, rows, cols, addF)},
		{"AssignRowCSR", func() *CSR[float64] { return AssignRowCSR(c, ur, i, cols, nil, nil, false) }, assignCSRRef(C, uAt(ur), []int{i}, cols, nil)},
		{"AssignRowCSR/mask+accum", func() *CSR[float64] { return AssignRowCSR(c, ur, i, cols, addF, vmRow, false) },
			maskMergeRef(C, assignCSRRef(C, uAt(ur), []int{i}, cols, addF), func(ii, jj int) bool { return ii != i || vecAllows(vmRow, jj) }, false)},
		{"AssignColCSR/accum", func() *CSR[float64] { return AssignColCSR(c, uc, rows, j, addF, nil, false) }, assignCSRRef(C, uAt(uc), rows, []int{j}, addF)},
		{"AssignColCSR/comp+replace", func() *CSR[float64] { return AssignColCSR(c, uc, rows, j, nil, vmCol, true) },
			maskMergeRef(C, assignCSRRef(C, uAt(uc), rows, []int{j}, nil), func(ii, jj int) bool { return jj != j || vecAllows(vmCol, ii) }, true)},
	}
	for _, m := range []*MatMask{mask, comp} {
		for _, replace := range []bool{false, true} {
			label := fmt.Sprintf("comp=%v/replace=%v", m.Comp, replace)
			cs = append(cs,
				csrCase{"MaskMergeCSR/" + label, func() *CSR[float64] { return MaskMergeCSR(c, a, m, replace) }, maskMergeRef(C, A, m.allowsCell, replace)},
				csrCase{"WriteCSR/" + label, func() *CSR[float64] { return WriteCSR(c, a, m, addF, OpNone, replace) },
					maskMergeRef(C, mergeRef(C, A, addF, same, same), m.allowsCell, replace)})
		}
	}
	return cs
}

// TestQuickCSRKernelsBitIdentical holds every matrix kernel that writes its
// rows through EmitCSR to a dense reference, structure and value bits, at
// one, two and four workers — so also to itself across worker counts — and
// requires its arrays to be sized for the result. The fixtures mix empty
// rows, rows storing every column and signed-zero/NaN payloads, on a matrix
// that splits into chunks under the test's split floor (quickSplitWork), a
// single row, and a matrix with no entries.
func TestQuickCSRKernelsBitIdentical(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	parallel.SetSplitWorkForTest(t, quickSplitWork)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shapes := []struct {
			name   string
			nr, nc int
			p      float64
		}{{"chunked", 90, 80, 0.3}, {"single-row", 1, 300, 0.5}, {"no-entries", 40, 30, 0}}
		for _, sh := range shapes {
			for _, tc := range csrCases(rng, sh.nr, sh.nc, sh.p) {
				for _, w := range []int{1, 2, 4} {
					parallel.SetMaxWorkers(w)
					label := fmt.Sprintf("seed=%d %s %s workers=%d", seed, sh.name, tc.name, w)
					requireCSRBits(t, label, tc.run(), tc.want)
				}
				parallel.SetMaxWorkers(1)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
	// The chunked fixture does split.
	parallel.SetMaxWorkers(2)
	if a := csrFixture(rand.New(rand.NewSource(1)), 90, 80, 0.3, func() float64 { return 1 }); parallel.WeightedBounds(a.NRows, a.Ptr) == nil {
		t.Fatalf("the chunked fixture (%d entries) runs as one chunk", a.NNZ())
	}
}

// TestCSRKernelsAllocBudget pins the allocations of the kernels on EmitCSR
// at one worker, where they run as one chunk, with tracing off and the
// pool's arenas warm: the same count on a 64-row and a 256-row matrix, so
// per call, not per row. What remains is six allocations per EmitCSR — the
// result's CSR, Ptr, ColIdx and Val, the arenas' slice and the kernel's
// closure — and a kernel's own per-chunk state: the sparse accumulator of a
// product. An assign sorts its targets and writes its assigned rows (the
// one row of an AssignRowCSR too) into pooled room, and a compiled merge
// (OpPlus, OpTimes) allocates no more than the closure's. At four workers,
// on a fixture sized from the split floor so that it runs in chunks, the
// count may grow with the chunks (their goroutines), never with the rows.
func TestCSRKernelsAllocBudget(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)
	// A collection drops the arenas shelved weakly between calls; the
	// budget is the kernel's own allocations, so none runs meanwhile.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	type fixture struct {
		a, at, band *CSR[float64]
		mask        *MatMask
		rows, cols  []int
		u           *Vec[float64]
		vm          *VecMask
	}
	fixtureOf := func(n int) fixture {
		a := allocFixture(t, n)
		var is, js []int
		for i := 0; i < n; i++ {
			for d := 0; d < 4; d++ {
				is, js = append(is, i), append(js, (i+7*d)%n)
			}
		}
		band, _ := BuildCSR(n, n, is, js, make([]float64, len(is)), nil)
		half := seq(0, n/2)
		u := &Vec[float64]{N: n / 2, Idx: seq(0, n/4), Val: make([]float64, n/4)}
		return fixture{a: a, at: a.Transpose(), band: band, mask: matMaskOf(a, false), rows: half, cols: half, u: u,
			vm: &VecMask{N: n, Idx: seq(0, n/3), Structure: seq(0, n/3)}}
	}
	comp := func(m *MatMask) *MatMask { c := *m; c.Comp = true; return &c }
	r := ring(mulF, addF)
	cases := []struct {
		name   string
		budget float64
		run    func(f fixture) *CSR[float64]
	}{
		{"SpGEMM", 9, func(f fixture) *CSR[float64] { return r.SpGEMM(f.a, f.band, nil) }},
		{"SpGEMM/comp", 10, func(f fixture) *CSR[float64] { return r.SpGEMM(f.a, f.band, comp(f.mask)) }},
		{"UnionCSR", 6, func(f fixture) *CSR[float64] { return UnionCSR(f.a, f.at, addF, OpNone) }},
		{"UnionCSR/plus", 6, func(f fixture) *CSR[float64] { return UnionCSR(f.a, f.at, addF, OpPlus) }},
		{"IntersectCSR", 6, func(f fixture) *CSR[float64] { return IntersectCSR(f.a, f.at, mulF, OpNone) }},
		{"IntersectCSR/times", 6, func(f fixture) *CSR[float64] { return IntersectCSR(f.a, f.at, mulF, OpTimes) }},
		{"UnionFillCSR", 6, func(f fixture) *CSR[float64] { return UnionFillCSR(f.a, f.at, mulF, 1, 2) }},
		{"MaskMergeCSR", 6, func(f fixture) *CSR[float64] { return MaskMergeCSR(f.a, f.at, f.mask, true) }},
		{"WriteCSR", 12, func(f fixture) *CSR[float64] { return WriteCSR(f.a, f.at, f.mask, addF, OpNone, false) }},
		{"ExtractCSR", 6, func(f fixture) *CSR[float64] { return ExtractCSR(f.a, f.rows, f.cols) }},
		{"AssignExpandCSR", 6, func(f fixture) *CSR[float64] {
			return AssignExpandCSR(f.a, f.a, f.rows, f.cols, addF)
		}},
		{"AssignScalarExpandCSR", 6, func(f fixture) *CSR[float64] { return AssignScalarExpandCSR(f.a, 2, f.rows, f.cols, nil) }},
		{"AssignRowCSR", 6, func(f fixture) *CSR[float64] { return AssignRowCSR(f.a, f.u, 3, f.cols, nil, f.vm, false) }},
		{"AssignColCSR", 6, func(f fixture) *CSR[float64] { return AssignColCSR(f.a, f.u, f.rows[:f.u.N], 5, addF, f.vm, true) }},
	}
	small, large := fixtureOf(64), fixtureOf(256)
	// 30 % of n² cells stored: 1.5 SplitWork entries.
	chunked := fixtureOf(int(math.Ceil(math.Sqrt(5 * parallel.SplitWork))))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, f := range []fixture{small, large} {
				tc.run(f) // warm the pool shelves so steady state is measured
				if allocs := testing.AllocsPerRun(20, func() { tc.run(f) }); allocs != tc.budget {
					t.Errorf("%s on %d rows allocates %.1f per call, budget %.0f — a new hot-path allocation needs pooling or a reviewed budget bump", tc.name, f.a.NRows, allocs, tc.budget)
				}
			}
			parallel.SetMaxWorkers(4)
			defer parallel.SetMaxWorkers(1)
			chunks := len(parallel.WeightedBounds(chunked.a.NRows, chunked.a.Ptr)) - 1
			if chunks < 2 {
				t.Fatalf("the chunked fixture (%d entries) runs as %d chunk(s)", chunked.a.NNZ(), chunks)
			}
			tc.run(chunked)
			if allocs := testing.AllocsPerRun(3, func() { tc.run(chunked) }); allocs > tc.budget+float64(12*chunks) {
				t.Errorf("%s at 4 workers (%d chunks) allocates %.1f per call, over %.0f + 12 per chunk", tc.name, chunks, allocs, tc.budget)
			}
		})
	}
}
