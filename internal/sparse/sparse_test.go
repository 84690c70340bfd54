package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"graphblas/internal/parallel"
	"graphblas/internal/pool"
)

func addF(x, y float64) float64 { return x + y }
func mulF(x, y float64) float64 { return x * y }

// ring is the semiring of two plain functions, which runs the closure loops.
func ring[DA, DB, DC any](mul func(DA, DB) DC, add func(DC, DC) DC) Ring[DA, DB, DC] {
	return Ring[DA, DB, DC]{Mul: mul, Add: add}
}

// randVec builds a random sparse vector and its dense model.
func randVec(rng *rand.Rand, n int, p float64) (*Vec[float64], map[int]float64) {
	v := NewVec[float64](n)
	m := map[int]float64{}
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			x := float64(rng.Intn(19) - 9)
			v.Idx = append(v.Idx, i)
			v.Val = append(v.Val, x)
			m[i] = x
		}
	}
	return v, m
}

// randCSR builds a random CSR matrix and its dense model.
func randCSR(rng *rand.Rand, nr, nc int, p float64) (*CSR[float64], map[[2]int]float64) {
	var is, js []int
	var vs []float64
	m := map[[2]int]float64{}
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Float64() < p {
				x := float64(rng.Intn(9) + 1)
				is = append(is, i)
				js = append(js, j)
				vs = append(vs, x)
				m[[2]int{i, j}] = x
			}
		}
	}
	c, ok := BuildCSR(nr, nc, is, js, vs, nil)
	if !ok {
		panic("BuildCSR failed")
	}
	return c, m
}

func checkVecInvariants(t *testing.T, v *Vec[float64], label string) {
	t.Helper()
	if len(v.Idx) != len(v.Val) {
		t.Fatalf("%s: idx/val length mismatch", label)
	}
	for k := 1; k < len(v.Idx); k++ {
		if v.Idx[k-1] >= v.Idx[k] {
			t.Fatalf("%s: indices not strictly increasing at %d: %v", label, k, v.Idx)
		}
	}
	for _, i := range v.Idx {
		if i < 0 || i >= v.N {
			t.Fatalf("%s: index %d out of range %d", label, i, v.N)
		}
	}
}

func checkCSRInvariants(t *testing.T, m *CSR[float64], label string) {
	t.Helper()
	if len(m.Ptr) != m.NRows+1 || m.Ptr[0] != 0 {
		t.Fatalf("%s: bad Ptr", label)
	}
	for i := 0; i < m.NRows; i++ {
		if m.Ptr[i] > m.Ptr[i+1] {
			t.Fatalf("%s: Ptr decreasing at %d", label, i)
		}
		for p := m.Ptr[i] + 1; p < m.Ptr[i+1]; p++ {
			if m.ColIdx[p-1] >= m.ColIdx[p] {
				t.Fatalf("%s: row %d columns not strictly increasing", label, i)
			}
		}
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			if m.ColIdx[p] < 0 || m.ColIdx[p] >= m.NCols {
				t.Fatalf("%s: row %d col %d out of range", label, i, m.ColIdx[p])
			}
		}
	}
	if m.Ptr[m.NRows] != len(m.ColIdx) || len(m.ColIdx) != len(m.Val) {
		t.Fatalf("%s: storage lengths inconsistent", label)
	}
}

func TestVecSetGetRemove(t *testing.T) {
	v := NewVec[float64](10)
	order := []int{5, 1, 9, 3, 1, 7}
	for k, i := range order {
		v.Set(i, float64(k))
	}
	checkVecInvariants(t, v, "after sets")
	if v.NVals() != 5 {
		t.Fatalf("nvals %d", v.NVals())
	}
	if x, ok := v.Get(1); !ok || x != 4 {
		t.Fatalf("overwrite got %v %v", x, ok)
	}
	if !v.Remove(3) || v.Remove(3) {
		t.Fatalf("remove semantics")
	}
	if _, ok := v.Get(3); ok {
		t.Fatalf("removed element still present")
	}
	checkVecInvariants(t, v, "after removes")
}

// Property: BuildVec sorts, dedups with the combiner, and round-trips
// through Tuples.
func TestQuickBuildVecRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 64
		idx := make([]int, len(raw))
		val := make([]float64, len(raw))
		model := map[int]float64{}
		for k, r := range raw {
			idx[k] = int(r) % n
			val[k] = float64(k + 1)
			model[idx[k]] += val[k]
		}
		v, ok := BuildVec(n, idx, val, addF)
		if !ok {
			return false
		}
		gi, gv := v.Tuples()
		if len(gi) != len(model) {
			return false
		}
		for k, i := range gi {
			if model[i] != gv[k] {
				return false
			}
		}
		return sort.IntsAreSorted(gi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildVecAscendingMatchesSorted: strictly ascending input takes
// BuildVec's one-pass path, which must build bit for bit what the sorting
// path builds from the same tuples in reverse order, in storage of its own
// (a full vector's positions the shared identity list), and refuse the
// out-of-range indices the sorting path refuses. A repeated index is never
// strictly ascending: it is sorted, then refused or combined.
func TestBuildVecAscendingMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 200
	for _, p := range []float64{0.02, 0.5, 1} {
		v := randFloatVec(rng, n, p)
		ri, rv := make([]int, len(v.Idx)), make([]float64, len(v.Val))
		for k := range v.Idx {
			ri[len(ri)-1-k], rv[len(rv)-1-k] = v.Idx[k], v.Val[k]
		}
		fast, ok := BuildVec(n, v.Idx, v.Val, nil)
		sorted, ok2 := BuildVec(n, ri, rv, nil)
		if !ok || !ok2 {
			t.Fatalf("p=%g: build refused (ascending %v, reversed %v)", p, ok, ok2)
		}
		label := fmt.Sprintf("p=%g ascending vs sorted", p)
		requireBitIdentical(t, label, fast, sorted)
		requireExact(t, label, fast)
		if overlaps(fast.Val, v.Val) || len(fast.Idx) < n && overlaps(fast.Idx, v.Idx) {
			t.Fatalf("%s: the built vector shares the caller's arrays", label)
		}
	}
	for _, bad := range [][]int{{-1, 3, 5}, {0, 3, n}} {
		if _, ok := BuildVec(n, bad, []float64{1, 2, 3}, addF); ok {
			t.Fatalf("BuildVec accepted out-of-range ascending indices %v", bad)
		}
	}
	if _, ok := BuildVec(n, []int{1, 3, 3}, []float64{1, 2, 4}, nil); ok {
		t.Fatal("BuildVec accepted a repeated index without a combiner")
	}
	if w, ok := BuildVec(n, []int{1, 3, 3}, []float64{1, 2, 4}, addF); !ok || w.NVals() != 2 || w.Val[1] != 6 {
		t.Fatalf("repeated index not combined: ok=%v %v %v", ok, w.Idx, w.Val)
	}
}

// Property: transpose is an involution and preserves content.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, model := randCSR(rng, 1+rng.Intn(20), 1+rng.Intn(20), 0.3)
		tt := m.Transpose().Transpose()
		if tt.NRows != m.NRows || tt.NCols != m.NCols || tt.NNZ() != m.NNZ() {
			return false
		}
		is, js, vs := tt.Tuples()
		for k := range is {
			if model[[2]int{is[k], js[k]}] != vs[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: VecUnion is commutative for a commutative operator and its
// structure is the union of structures.
func TestQuickVecUnionCommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		a, am := randVec(rng, n, 0.4)
		b, bm := randVec(rng, n, 0.4)
		u1 := VecUnion(a, b, addF, OpNone)
		u2 := VecUnion(b, a, addF, OpNone)
		if !reflect.DeepEqual(u1.Idx, u2.Idx) || !reflect.DeepEqual(u1.Val, u2.Val) {
			return false
		}
		want := map[int]float64{}
		for i, x := range am {
			want[i] = x
		}
		for i, x := range bm {
			want[i] += x
		}
		if len(u1.Idx) != len(want) {
			return false
		}
		for k, i := range u1.Idx {
			if want[i] != u1.Val[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: VecIntersect's structure is the intersection of structures.
func TestQuickVecIntersect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		a, am := randVec(rng, n, 0.5)
		b, bm := randVec(rng, n, 0.5)
		x := VecIntersect(a, b, mulF, OpNone)
		for k, i := range x.Idx {
			av, aok := am[i]
			bv, bok := bm[i]
			if !aok || !bok || x.Val[k] != av*bv {
				return false
			}
		}
		count := 0
		for i := range am {
			if _, ok := bm[i]; ok {
				count++
			}
		}
		return count == len(x.Idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SpGEMM (SPA) agrees with the naive dense product.
func TestQuickSpGEMMAgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, l, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a, am := randCSR(rng, m, l, 0.35)
		b, bm := randCSR(rng, l, n, 0.35)
		want := map[[2]int]float64{}
		has := map[[2]int]bool{}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < l; k++ {
					x, ok1 := am[[2]int{i, k}]
					y, ok2 := bm[[2]int{k, j}]
					if ok1 && ok2 {
						want[[2]int{i, j}] += x * y
						has[[2]int{i, j}] = true
					}
				}
			}
		}
		c := SpGEMM(a, b, mulF, addF, nil)
		if c.NNZ() != len(has) {
			return false
		}
		is, js, vs := c.Tuples()
		for k := range is {
			if want[[2]int{is[k], js[k]}] != vs[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// maskedCase is one random input of TestQuickSpGEMMMaskedEqualsFiltered:
// A (m×k), B (n×k) and a valued mask (m×n) whose zero values are stored but
// not effective.
type maskedCase struct {
	a, b, mp *CSR[float64]
}

// randMaskedCase draws the shapes the masked kernels must agree on. One
// draw in four is large: its inner dimension k, from SplitWork/512 up, gives
// the products some 700 k flops and the dot kernel as many scans, past the
// split floor, so at two and four workers their rows run in chunks
// (TestQuickSpGEMMMaskedEqualsFiltered checks that they do). The rest are
// tiny and hit the degenerate rows.
func randMaskedCase(rng *rand.Rand) maskedCase {
	m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
	pa, pb, pm := 0.35, 0.35, 0.4
	if rng.Intn(4) == 0 {
		m, k, n = 128+rng.Intn(32), parallel.SplitWork>>9+rng.Intn(16), 96+rng.Intn(32)
		pa, pb, pm = 0.45, 0.3, 0.5
	}
	if rng.Intn(8) == 0 {
		pm = 0 // empty mask
	}
	// Values spread over sixteen decades, so the order a sum is folded in
	// shows in its low bits.
	build := func(nr, nc int, p float64, zeroes bool) *CSR[float64] {
		var is, js []int
		var vs []float64
		for i := 0; i < nr; i++ {
			if rng.Intn(5) == 0 {
				continue // an empty row
			}
			for j := 0; j < nc; j++ {
				if rng.Float64() >= p {
					continue
				}
				x := (rng.Float64() + 0.5) * math.Pow(10, float64(rng.Intn(17)-8))
				if zeroes && rng.Intn(3) == 0 {
					x = 0
				}
				is, js, vs = append(is, i), append(js, j), append(vs, x)
			}
		}
		c, ok := BuildCSR(nr, nc, is, js, vs, nil)
		if !ok {
			panic("BuildCSR failed")
		}
		return c
	}
	return maskedCase{a: build(m, k, pa, false), b: build(n, k, pb, false), mp: build(m, n, pm, true)}
}

// resolve builds the kernel mask the way core.resolveMatMask does: the
// structure aliases the mask matrix, the effective pattern keeps the
// positions whose stored value is nonzero.
func (mc maskedCase) resolve(comp bool) *MatMask {
	mp := mc.mp
	mask := &MatMask{NCols: mp.NCols, StrPtr: mp.Ptr, StrIdx: mp.ColIdx, Comp: comp, EffPtr: make([]int, mp.NRows+1)}
	for i := 0; i < mp.NRows; i++ {
		for p := mp.Ptr[i]; p < mp.Ptr[i+1]; p++ {
			if mp.Val[p] != 0 {
				mask.EffIdx = append(mask.EffIdx, mp.ColIdx[p])
			}
		}
		mask.EffPtr[i+1] = len(mask.EffIdx)
	}
	return mask
}

// filtered keeps the entries of full the mask admits.
func (mc maskedCase) filtered(full *CSR[float64], comp bool) *CSR[float64] {
	out := NewCSR[float64](full.NRows, full.NCols)
	for i := 0; i < full.NRows; i++ {
		for p := full.Ptr[i]; p < full.Ptr[i+1]; p++ {
			j := full.ColIdx[p]
			v, stored := mc.mp.Get(i, j)
			if (comp && !stored) || (!comp && stored && v != 0) {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, full.Val[p])
			}
		}
		out.Ptr[i+1] = len(out.ColIdx)
	}
	return out
}

// sameCSR compares structure, row pointer and value bits.
func sameCSR(x, y *CSR[float64]) bool {
	if x.NRows != y.NRows || x.NCols != y.NCols || x.NNZ() != y.NNZ() || !reflect.DeepEqual(x.Ptr, y.Ptr) {
		return false
	}
	for p := 0; p < x.NNZ(); p++ {
		if x.ColIdx[p] != y.ColIdx[p] || math.Float64bits(x.Val[p]) != math.Float64bits(y.Val[p]) {
			return false
		}
	}
	return len(x.ColIdx) == x.NNZ() && len(x.Val) == x.NNZ()
}

// Property: under a mask, the slot kernel (SpGEMM on Bᵀ), the dot kernel
// (SpGEMMDotMasked on B as stored) and "unmasked product, then filter" agree
// byte for byte — structure, row pointer, value bits — and so does the
// complemented branch, at every worker count. ⊗ is not commutative and the
// values make ⊕'s order visible, so a kernel that swaps operands or folds an
// entry's terms out of ascending-k order fails.
func TestQuickSpGEMMMaskedEqualsFiltered(t *testing.T) {
	mul := func(x, y float64) float64 { return x - 3*y }
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			parallel.SetMaxWorkersForTest(t, workers)
			f := func(seed int64) bool {
				mc := randMaskedCase(rand.New(rand.NewSource(seed)))
				bt := mc.b.Transpose()
				if mc.a.NRows >= 128 {
					flops, scans := productSteps(mc.a, bt.Ptr), DotScans(mc.a.NRows, mc.b, mc.resolve(false))
					if flops[mc.a.NRows] < parallel.SplitWork || mc.mp.NNZ() > 0 && scans[mc.a.NRows] < parallel.SplitWork {
						t.Fatalf("seed %d: a large draw holds %d flops and %d scans, under the split floor %d", seed, flops[mc.a.NRows], scans[mc.a.NRows], parallel.SplitWork)
					}
					pool.PutInts(flops)
					pool.PutInts(scans)
				}
				full := SpGEMM(mc.a, bt, mul, addF, nil)
				for _, comp := range []bool{false, true} {
					mask := mc.resolve(comp)
					want := mc.filtered(full, comp)
					if !sameCSR(SpGEMM(mc.a, bt, mul, addF, mask), want) {
						t.Logf("seed %d comp=%v: SpGEMM differs from the filtered product", seed, comp)
						return false
					}
					if comp {
						continue
					}
					scans := DotScans(mc.a.NRows, mc.b, mask)
					dot := ring(mul, addF).SpGEMMDotMasked(mc.a, mc.b, mask, scans)
					pool.PutInts(scans)
					if !sameCSR(dot, want) {
						t.Logf("seed %d: SpGEMMDotMasked differs from the filtered product", seed)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDotMaskedWins pins the selection inequality on a case small enough to
// count by hand, with and without a transpose already in hand.
func TestDotMaskedWins(t *testing.T) {
	// A = B = the full strict lower triangle of order 4, mask = A.
	var is, js []int
	var vs []float64
	for i := 0; i < 4; i++ {
		for j := 0; j < i; j++ {
			is, js, vs = append(is, i), append(js, j), append(vs, 1)
		}
	}
	l, _ := BuildCSR(4, 4, is, js, vs, nil)
	mask := &MatMask{NCols: 4, EffPtr: l.Ptr, EffIdx: l.ColIdx, StrPtr: l.Ptr, StrIdx: l.ColIdx}
	wins := func(b, bt *CSR[float64]) bool {
		scans := DotScans(4, b, mask)
		defer pool.PutInts(scans)
		return DotMaskedWins(l, b, bt, mask, scans)
	}
	// dot work Σ_{(i,j)} |L(j)| = 0+0+1+0+1+2 = 4; Gustavson flops
	// Σ_{(i,k)} |Lᵀ(k)| = 3+3+2+3+2+1 = 14; nnz(L) = 6.
	if !wins(l, nil) || !wins(l, l.Transpose()) {
		t.Fatal("dot kernel should win on the lower triangle (4 ≤ 14)")
	}
	// With B = U = Lᵀ (the product L·L under mask L) the two counts swap:
	// 14 dot steps against 4 flops, + 6 only while Uᵀ is still to be built.
	u := l.Transpose()
	if wins(u, nil) || wins(u, l) {
		t.Fatal("Gustavson should win on L·L (14 > 4 + 6)")
	}
}

// TestQuickPushPullBitIdentical: the two directions of w = Aᵀ ⊕.⊗ u —
// PushMxV over A and DotMxV over Aᵀ — return the same structure and the same
// value bits, which is what lets the engine pick one per call
// (core.pushOrPull) without the choice showing. A is rectangular with empty
// rows and columns, u runs from empty to full (the dot kernel's dense-array
// path), the mask is absent, valued with stored falses (Idx ≠ Structure), or
// a structural complement. ⊕ = x/2 + y is neither commutative nor
// associative and the values span sixteen decades, so a target folded in any
// order but ascending k fails; ⊗ = x − 3y catches swapped operands. One draw
// in four stores more edges than the test's split floor (quickSplitWork),
// so at 2 and 4 workers the pull's chunked row loop is compared with the
// push's one pass.
func TestQuickPushPullBitIdentical(t *testing.T) {
	mul := func(x, y float64) float64 { return x - 3*y }
	add := func(x, y float64) float64 { return x/2 + y }
	wide := func(rng *rand.Rand) float64 {
		return (rng.Float64() + 0.5) * math.Pow(10, float64(rng.Intn(17)-8))
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			parallel.SetMaxWorkersForTest(t, workers)
			parallel.SetSplitWorkForTest(t, quickSplitWork)
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				nr, nc, p := 1+rng.Intn(15), 1+rng.Intn(15), 0.3
				if rng.Intn(4) == 0 {
					nr, nc, p = 128+rng.Intn(32), 96+rng.Intn(64), 0.5
				}
				var is, js []int
				var vs []float64
				for i := 0; i < nr; i++ {
					if rng.Intn(5) == 0 {
						continue // an empty row
					}
					for j := 0; j < nc; j++ {
						if j%7 != 3 && rng.Float64() < p { // columns 3, 10, … stay empty
							is, js, vs = append(is, i), append(js, j), append(vs, wide(rng))
						}
					}
				}
				a, ok := BuildCSR(nr, nc, is, js, vs, nil)
				if !ok {
					t.Fatal("BuildCSR failed")
				}
				if nr > 15 && a.NNZ() < quickSplitWork {
					t.Fatalf("seed %d: a large draw stores %d edges, under the test's split floor %d", seed, a.NNZ(), quickSplitWork)
				}
				at := a.Transpose()
				fill := []float64{0, 0.1, 0.5, 0.9, 1}[rng.Intn(5)]
				u := NewVec[float64](nr)
				for k := 0; k < nr; k++ {
					if rng.Float64() < fill {
						u.Idx, u.Val = append(u.Idx, k), append(u.Val, wide(rng))
					}
				}
				valued := &VecMask{N: nc}
				for j := 0; j < nc; j++ {
					if rng.Intn(2) == 0 {
						valued.Structure = append(valued.Structure, j)
						if rng.Intn(3) != 0 {
							valued.Idx = append(valued.Idx, j)
						}
					}
				}
				comp := &VecMask{N: nc, Idx: valued.Idx, Structure: valued.Structure, Comp: true}
				for name, mask := range map[string]*VecMask{"none": nil, "valued": valued, "complement": comp} {
					push := PushMxV(a, u, mul, add, mask)
					pull := DotMxV(at, u, mul, add, mask)
					if push.N != pull.N || !reflect.DeepEqual(push.Idx, pull.Idx) {
						t.Logf("seed %d mask %s: structures differ: push %v, pull %v", seed, name, push.Idx, pull.Idx)
						return false
					}
					for k := range push.Val {
						if math.Float64bits(push.Val[k]) != math.Float64bits(pull.Val[k]) {
							t.Logf("seed %d mask %s: w(%d) = %x pushed, %x pulled", seed, name, push.Idx[k],
								math.Float64bits(push.Val[k]), math.Float64bits(pull.Val[k]))
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPullWins pins the direction rule on frontiers counted by hand, on
// both sides of each constant, with and without a transpose in hand.
func TestPullWins(t *testing.T) {
	// A is 12×512: rows 0..7 are full (512 entries each), rows 8..11 empty.
	// nnz(A) = 4096 and every row of Aᵀ holds 8.
	const rows, width = 12, 512
	var is, js []int
	var vs []float64
	for k := 0; k < 8; k++ {
		for j := 0; j < width; j++ {
			is, js, vs = append(is, k), append(js, j), append(vs, 1)
		}
	}
	a, ok := BuildCSR(rows, width, is, js, vs, nil)
	if !ok {
		t.Fatal("BuildCSR failed")
	}
	at := a.Transpose()
	half := &VecMask{N: width, Idx: seq(0, 256), Structure: seq(0, 256)}
	notQuarter := &VecMask{N: width, Structure: seq(0, 128), Comp: true}
	cases := []struct {
		name   string
		u      []int
		cached bool
		mask   *VecMask
		want   bool
	}{
		// 1536 edges: under pullMinEdges, whatever else holds.
		{"three rows, below the parallel floor", seq(0, 3), true, nil, false},
		{"only empty rows", seq(8, 12), true, nil, false},
		// Aᵀ in hand: 4·push ≥ 3·4096 from 3072 edges, six rows, up.
		{"five rows, cached", seq(0, 5), true, nil, false},
		{"six rows, cached", seq(0, 6), true, nil, true},
		// Nothing in hand: the build adds 4096/6 = 682 pull steps, and
		// 4·push ≥ 3·4778 from 3584 edges, seven rows, up.
		{"six rows, nothing cached", seq(0, 6), false, nil, false},
		{"seven rows, nothing cached", seq(0, 7), false, nil, true},
		{"every edge and an empty row, nothing cached", seq(0, 9), false, nil, true},
		// The mask admits columns 0..255: pull work 256·8 = 2048, reached by
		// 4·push from 1536 edges up, so pullMinEdges decides.
		{"three rows, half the targets admitted", seq(0, 3), true, half, false},
		{"four rows, half the targets admitted", seq(0, 4), true, half, true},
		// The complement of a structure 0..127 leaves 384·8 = 3072:
		// 4·push ≥ 3·3072 from 2304 edges, five rows, up.
		{"four rows, a quarter masked out", seq(0, 4), true, notQuarter, false},
		{"five rows, a quarter masked out", seq(0, 5), true, notQuarter, true},
		// Without a transpose the mask's rows cannot be counted: no help.
		{"six rows, masked, nothing cached", seq(0, 6), false, half, false},
	}
	for _, tc := range cases {
		var t0 *CSR[float64]
		if tc.cached {
			t0 = at
		}
		if got := (Ring[float64, float64, float64]{}).PullWins(a.Ptr, tc.u, t0, tc.mask); got != tc.want {
			t.Errorf("%s: PullWins = %v, want %v", tc.name, got, tc.want)
		}
	}
	// A predefined ⟨+, second⟩ pulls a partial u with no presence test,
	// priced 4 : 1, the build still at 3 a step: from 1024 edges up with Aᵀ
	// in hand, 1536 without (4·push ≥ 4096 + 3·682), so the parallel floor
	// decides. ⟨min, second⟩ (whose fold stops at its
	// terminal value either way) and ⟨+, ×⟩ (which tests presence) keep the
	// closure's 4 : 3.
	rings := []struct {
		name string
		r    Ring[float64, float64, float64]
		want bool
	}{
		{"⟨+, second⟩", Ring[float64, float64, float64]{MulOp: OpSecond, AddOp: OpPlus}, true},
		{"⟨+, first⟩ swapped", Ring[float64, float64, float64]{MulOp: OpFirst, AddOp: OpPlus, Swapped: true}, true},
		{"⟨+, first⟩", Ring[float64, float64, float64]{MulOp: OpFirst, AddOp: OpPlus}, false},
		{"⟨min, second⟩", Ring[float64, float64, float64]{MulOp: OpSecond, AddOp: OpMin}, false},
		{"⟨+, ×⟩", Ring[float64, float64, float64]{MulOp: OpTimes, AddOp: OpPlus}, false},
	}
	for _, rc := range rings {
		for _, t0 := range []*CSR[float64]{at, nil} {
			if got := rc.r.PullWins(a.Ptr, seq(0, 4), t0, nil); got != rc.want {
				t.Errorf("%s, four rows, cached %v: PullWins = %v, want %v", rc.name, t0 != nil, got, rc.want)
			}
		}
		if rc.r.PullWins(a.Ptr, seq(0, 3), at, nil) {
			t.Errorf("%s, three rows: pulled below the parallel floor", rc.name)
		}
	}
}

// seq returns lo, lo+1, …, hi-1.
func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// Property: WriteVec with no mask and no accumulator returns exactly t.
func TestQuickWriteVecIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		c, _ := randVec(rng, n, 0.4)
		tv, _ := randVec(rng, n, 0.4)
		out := WriteVec(c, tv, nil, nil, OpNone, false)
		return reflect.DeepEqual(out.Idx, tv.Idx) && reflect.DeepEqual(out.Val, tv.Val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MaskMergeVec with a full true mask equals z; with an empty mask
// and replace it is empty; with an empty mask and merge it equals c.
func TestMaskMergeVecEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 30
	c, _ := randVec(rng, n, 0.5)
	z, _ := randVec(rng, n, 0.5)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	full := &VecMask{N: n, Idx: all, Structure: all}
	if out := MaskMergeVec(c, z, full, false); !reflect.DeepEqual(out.Idx, z.Idx) {
		t.Fatalf("full mask should pass z through")
	}
	empty := &VecMask{N: n}
	if out := MaskMergeVec(c, z, empty, true); out.NVals() != 0 {
		t.Fatalf("empty mask with replace should clear")
	}
	if out := MaskMergeVec(c, z, empty, false); !reflect.DeepEqual(out.Idx, c.Idx) {
		t.Fatalf("empty mask merge should keep c")
	}
	// Complement of empty mask admits everything.
	compEmpty := &VecMask{N: n, Comp: true}
	if out := MaskMergeVec(c, z, compEmpty, false); !reflect.DeepEqual(out.Idx, z.Idx) {
		t.Fatalf("complement of empty mask should pass z through")
	}
}

func TestCSRSetRemoveResize(t *testing.T) {
	m := NewCSR[float64](4, 4)
	m.Set(2, 1, 5)
	m.Set(0, 3, 2)
	m.Set(2, 0, 1)
	m.Set(2, 1, 9) // overwrite
	checkCSRInvariants(t, m, "after sets")
	if m.NNZ() != 3 {
		t.Fatalf("nnz %d", m.NNZ())
	}
	if x, ok := m.Get(2, 1); !ok || x != 9 {
		t.Fatalf("get %v %v", x, ok)
	}
	if !m.Remove(0, 3) || m.Remove(0, 3) {
		t.Fatalf("remove semantics")
	}
	checkCSRInvariants(t, m, "after remove")
	m.Resize(3, 1)
	checkCSRInvariants(t, m, "after shrink")
	if m.NNZ() != 1 { // only (2,0) survives
		t.Fatalf("resize nnz %d", m.NNZ())
	}
	m.Resize(6, 6)
	checkCSRInvariants(t, m, "after grow")
	if m.NNZ() != 1 || m.NRows != 6 || m.NCols != 6 {
		t.Fatalf("grow wrong")
	}
}

func TestBuildCSRDuplicates(t *testing.T) {
	if _, ok := BuildCSR(2, 2, []int{0, 0}, []int{1, 1}, []float64{1, 2}, nil); ok {
		t.Fatalf("duplicates without dup should fail")
	}
	m, ok := BuildCSR(2, 2, []int{0, 0, 1}, []int{1, 1, 0}, []float64{1, 2, 7}, addF)
	if !ok {
		t.Fatalf("BuildCSR failed")
	}
	if x, _ := m.Get(0, 1); x != 3 {
		t.Fatalf("dup combine %v", x)
	}
	if _, ok := BuildCSR(2, 2, []int{5}, []int{0}, []float64{1}, nil); ok {
		t.Fatalf("out of range accepted")
	}
}

func TestExtractCSRDuplicateIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, model := randCSR(rng, 6, 6, 0.5)
	rows := []int{3, 3, 0, 5}
	cols := []int{2, 2, 4}
	got := ExtractCSR(a, rows, cols)
	checkCSRInvariants(t, got, "extract")
	for r, src := range rows {
		for q, cj := range cols {
			want, wok := model[[2]int{src, cj}]
			g, gok := got.Get(r, q)
			if wok != gok || (wok && g != want) {
				t.Fatalf("(%d,%d): got %v,%v want %v,%v", r, q, g, gok, want, wok)
			}
		}
	}
}

// TestExtractCSRLongRowSort: a column list that reverses or shuffles a
// long row leaves the whole row out of order for sortRow. Extracted, a
// reversed and a shuffled 4 000-entry row equal the reference CSR built from
// the model, and a reversed 64 000-entry row extracts within a bound an
// insertion sort (about 1.6 s, quadratic from 6.45 ms at 4 000) misses by
// far and an O(d log d) sort (a few ms) meets with room under -race.
func TestExtractCSRLongRowSort(t *testing.T) {
	row := func(n int) *CSR[float64] {
		a := &CSR[float64]{NRows: 1, NCols: n, Ptr: []int{0, n}}
		for j := 0; j < n; j++ {
			a.ColIdx = append(a.ColIdx, j)
			a.Val = append(a.Val, float64(j)*0.5+1)
		}
		return a
	}
	reversed := func(n int) []int {
		cols := make([]int, n)
		for q := range cols {
			cols[q] = n - 1 - q
		}
		return cols
	}
	const n = 4000
	a := row(n)
	shuffled := rand.New(rand.NewSource(3)).Perm(n)
	for name, cols := range map[string][]int{"reversed": reversed(n), "shuffled": shuffled} {
		got := ExtractCSR(a, []int{0}, cols)
		checkCSRInvariants(t, got, "extract/"+name)
		// out(0, q) = a(0, cols[q]) at every q, in ascending q.
		want := &CSR[float64]{NRows: 1, NCols: n, Ptr: []int{0, n}}
		for q, j := range cols {
			want.ColIdx = append(want.ColIdx, q)
			want.Val = append(want.Val, a.Val[j])
		}
		if !reflect.DeepEqual(got.Ptr, want.Ptr) || !reflect.DeepEqual(got.ColIdx[:got.NNZ()], want.ColIdx) || !reflect.DeepEqual(got.Val[:got.NNZ()], want.Val) {
			t.Fatalf("%s: extract differs from the reference", name)
		}
	}
	const long = 64000
	la, lcols := row(long), reversed(long)
	start := time.Now()
	got := ExtractCSR(la, []int{0}, lcols)
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("a reversed %d-entry row took %v to extract, bound 500ms: the row sort is not O(d log d)", long, el)
	}
	checkCSRInvariants(t, got, "extract/long")
}

func TestKron(t *testing.T) {
	a, _ := BuildCSR(2, 3, []int{0, 1}, []int{2, 0}, []float64{2, 3}, nil)
	b, _ := BuildCSR(3, 2, []int{0, 2}, []int{1, 0}, []float64{5, 7}, nil)
	k := KronCSR(a, b, mulF)
	checkCSRInvariants(t, k, "kron")
	if k.NRows != 6 || k.NCols != 6 || k.NNZ() != 4 {
		t.Fatalf("kron shape %dx%d nnz %d", k.NRows, k.NCols, k.NNZ())
	}
	checks := [][3]float64{
		{0, 5, 10}, {2, 4, 14}, {3, 1, 15}, {5, 0, 21},
	}
	for _, c := range checks {
		if x, ok := k.Get(int(c[0]), int(c[1])); !ok || x != c[2] {
			t.Fatalf("kron (%v,%v) got %v %v want %v", c[0], c[1], x, ok, c[2])
		}
	}
}

func TestReduceRows(t *testing.T) {
	a, _ := BuildCSR(3, 3, []int{0, 0, 2}, []int{0, 1, 2}, []float64{1, 2, 5}, nil)
	w := ReduceRowsCSR(a, addF, OpNone, nil)
	if w.NVals() != 2 {
		t.Fatalf("nvals %d", w.NVals())
	}
	if x, _ := w.Get(0); x != 3 {
		t.Fatalf("row0 %v", x)
	}
	if _, ok := w.Get(1); ok {
		t.Fatalf("empty row produced entry")
	}
	total, any := ReduceAllCSR(a, addF, OpNone, 0, nil)
	if !any || total != 8 {
		t.Fatalf("reduce all %v %v", total, any)
	}
	empty := NewCSR[float64](2, 2)
	if _, any := ReduceAllCSR(empty, addF, OpNone, 0, nil); any {
		t.Fatalf("empty matrix reported entries")
	}
}

func TestSelectAndApply(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a, model := randCSR(rng, 8, 8, 0.4)
	sel := SelectCSR(a, func(v float64, i, j int) bool { return j < i && v > 3 })
	checkCSRInvariants(t, sel, "select")
	is, js, vs := sel.Tuples()
	for k := range is {
		if !(js[k] < is[k] && vs[k] > 3) {
			t.Fatalf("select kept (%d,%d)=%v", is[k], js[k], vs[k])
		}
	}
	count := 0
	for k, v := range model {
		if k[1] < k[0] && v > 3 {
			count++
		}
	}
	if count != sel.NNZ() {
		t.Fatalf("select count %d want %d", sel.NNZ(), count)
	}

	ap := ApplyIndexCSR(a, func(v float64, i, j int) float64 { return v + float64(100*i+j) })
	ai, aj, av := ap.Tuples()
	for k := range ai {
		if av[k] != model[[2]int{ai[k], aj[k]}]+float64(100*ai[k]+aj[k]) {
			t.Fatalf("apply index wrong at (%d,%d)", ai[k], aj[k])
		}
	}
}

func TestPartitionByWeight(t *testing.T) {
	// Degenerate and balanced cases exercised through ForWeighted in other
	// tests; here check bounds structure directly via a skewed cum array.
	cum := []int{0, 100, 101, 102, 103, 104}
	a, _ := BuildCSR(5, 5, []int{0}, []int{0}, []float64{1}, nil)
	_ = a
	// One heavy row: partitioning should still cover [0, n).
	got := SpGEMM(
		&CSR[float64]{NRows: 5, NCols: 5, Ptr: cum[:6], ColIdx: make([]int, 104), Val: make([]float64, 104)},
		NewCSR[float64](5, 5), mulF, addF, nil)
	if got.NNZ() != 0 {
		t.Fatalf("empty B should give empty product")
	}
}

// quickSplitWork is the split floor the randomized kernel tests whose
// reference is dense run under: a fixture past parallel.SplitWork would
// cost seconds a draw, and the chunked loops are the same code at any
// floor. The fixed-size tests (TestPushMxV_MatchesPull,
// TestQuickSpGEMMMaskedEqualsFiltered's large draws, the chunk rows of
// TestCSRKernelsAllocBudget, the push past the floor in
// TestBuiltinKernelsAllocBudget) are sized from SplitWork itself.
const quickSplitWork = 1024

// largeSide is the side of a square fixture that stores at least 1.25·work
// entries when a fraction fill of its cells is stored: a fixture sized from
// the split floor this way splits at two and four workers.
func largeSide(work int, fill float64) int {
	return int(math.Ceil(math.Sqrt(1.25 * float64(work) / fill)))
}
