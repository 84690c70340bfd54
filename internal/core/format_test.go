package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"graphblas/internal/parallel"
	"graphblas/internal/sparse"
	"graphblas/internal/stream"
)

// TestDenseProductRule pins which kernel an MxM runs and what it leaves. The
// dense ⟨+,×⟩ product runs for the predefined ⟨+,×⟩ with no mask, no
// accumulator and no INP1 transposition, over a B at least 4 % full
// (format.DenseProductWins); its result is bit-identical to sparse.SpGEMM's,
// −0 and NaN payloads included, at 1 and 4 workers, in int64 and float64,
// and C's store is a CSR of that exact size. Dropping any one condition —
// a mask, an accumulator, TRAN1, a user-defined times, a B 3 % full — runs
// Gustavson's kernel.
func TestDenseProductRule(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	denseProductRule(t, []int64{-3, 0, 2, 5, math.MaxInt64})
	negZero, nan := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001)
	denseProductRule(t, []float64{-1.5, negZero, 0, 2.25, nan})
}

func denseProductRule[T int64 | float64](t *testing.T, values []T) {
	const n = 50 // 2 500 cells: fills 0.03/0.04/0.05 are 75/100/125 entries
	rng := rand.New(rand.NewSource(31))
	plus := PredefinedBinaryOp(sparse.OpPlus, "plus", func(x, y T) T { return x + y })
	add, err := NewMonoid(plus, 0)
	if err != nil {
		t.Fatal(err)
	}
	times := func(x, y T) T { return x * y }
	s, err := NewSemiring(add, PredefinedBinaryOp(sparse.OpTimes, "times", times))
	if err != nil {
		t.Fatal(err)
	}
	user, err := NewSemiring(add, BinaryOp[T, T, T]{Name: "times", F: times})
	if err != nil {
		t.Fatal(err)
	}
	// build stores exactly nnz entries drawn from values at random cells.
	build := func(nnz int) *Matrix[T] {
		var is, js []int
		var vs []T
		for _, c := range rng.Perm(n * n)[:nnz] {
			is, js, vs = append(is, c/n), append(js, c%n), append(vs, values[rng.Intn(len(values))])
		}
		m, err := NewMatrix[T](n, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Build(is, js, vs, NoAccum[T]()); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := build(n * n / 4)
	mask := build(n * n / 2)
	// ran reports whether the call ran the dense product, and C.
	ran := func(label string, mxm func(c *Matrix[T]) error) (bool, *Matrix[T]) {
		t.Helper()
		c, err := NewMatrix[T](n, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Build([]int{1}, []int{2}, []T{values[0]}, NoAccum[T]()); err != nil {
			t.Fatal(err)
		}
		before := fmtFastOps.Value()
		if err := mxm(c); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return fmtFastOps.Value() != before, c
	}
	for _, fill := range []float64{0.03, 0.04, 0.05} {
		b := build(int(fill*n*n + 0.5))
		for _, w := range []int{1, 4} {
			parallel.SetMaxWorkers(w)
			label := fmt.Sprintf("%T/fill=%g/workers=%d", values[0], fill, w)
			dense, c := ran(label, func(c *Matrix[T]) error { return MxM(c, NoMask, NoAccum[T](), s, a, b, nil) })
			if dense != (fill >= 0.04) {
				t.Fatalf("%s: dense product ran = %v", label, dense)
			}
			want := sparse.SpGEMM(a.mdat(), b.mdat(), times, plus.F, nil)
			c.mu.Lock()
			got := c.data
			c.mu.Unlock()
			if cap(got.ColIdx) != len(got.ColIdx) || cap(got.Val) != len(got.Val) ||
				!reflect.DeepEqual(got.Ptr, want.Ptr) || !reflect.DeepEqual(got.ColIdx, want.ColIdx) || !sameValueBits(got.Val, want.Val) {
				t.Fatalf("%s: C's store differs from sparse.SpGEMM's", label)
			}
		}
		parallel.SetMaxWorkers(1)
		if fill < 0.05 {
			continue
		}
		for _, tc := range []struct {
			name string
			mxm  func(c *Matrix[T]) error
		}{
			{"mask", func(c *Matrix[T]) error { return MxM(c, mask, NoAccum[T](), s, a, b, nil) }},
			{"accum", func(c *Matrix[T]) error { return MxM(c, NoMask, plus, s, a, b, nil) }},
			{"TRAN1", func(c *Matrix[T]) error { return MxM(c, NoMask, NoAccum[T](), s, a, b, Desc().Transpose1()) }},
			{"user times", func(c *Matrix[T]) error { return MxM(c, NoMask, NoAccum[T](), user, a, b, nil) }},
		} {
			if dense, _ := ran(tc.name, tc.mxm); dense {
				t.Fatalf("%T/%s: the dense product ran", values[0], tc.name)
			}
		}
	}
}

// sameValueBits compares values bit for bit: the sign of zero and NaN
// payloads count.
func sameValueBits[T int64 | float64](x, y []T) bool {
	bitsOf := func(v T) uint64 {
		if f, ok := any(v).(float64); ok {
			return math.Float64bits(f)
		}
		return uint64(any(v).(int64))
	}
	if len(x) != len(y) {
		return false
	}
	for k := range x {
		if bitsOf(x[k]) != bitsOf(y[k]) {
			return false
		}
	}
	return true
}

// TestDenseVxMNeverPullsStaleTranspose: a dense VxM builds and caches Aᵀ and
// pulls over it (pushOrPull), so whatever changes A between two such calls
// must leave the second one a transpose of the new content — in blocking
// mode and with both calls and the mutation deferred into one sequence.
func TestDenseVxMNeverPullsStaleTranspose(t *testing.T) {
	const n = 80
	mutators := []struct {
		name   string
		nc     int // columns after the mutation
		mutate func(m *Matrix[float64]) error
	}{
		{"SetElement", n, func(m *Matrix[float64]) error { return m.SetElement(99, 2, 5) }},
		{"ApplyUpdateBatch", n, func(m *Matrix[float64]) error {
			return m.ApplyUpdateBatch(streamBatch([3]int{0, 1, 9}, [3]int{1, 1, -1}, [3]int{7, 70, 4}))
		}},
		{"Resize", n - 16, func(m *Matrix[float64]) error { return m.Resize(n, n-16) }},
	}
	for _, mode := range []Mode{Blocking, NonBlocking} {
		for _, mu := range mutators {
			t.Run(mode.String()+"/"+mu.name, func(t *testing.T) {
				withMode(t, mode, func() {
					rng := rand.New(rand.NewSource(67))
					a, _ := newTestMatrix(t, rng, n, n, 0.5)
					u, ud := randVecModel(t, rng, n, 1)
					s := plusTimesF64(t)
					pulls, builds := mxvPull.Value(), transposeBuilds.Value()
					w1, _ := NewVector[float64](n)
					if err := VxM(w1, NoMaskV, NoAccum[float64](), s, u, a, nil); err != nil {
						t.Fatal(err)
					}
					if err := mu.mutate(a); err != nil {
						t.Fatal(err)
					}
					w2, _ := NewVector[float64](mu.nc)
					if err := VxM(w2, NoMaskV, NoAccum[float64](), s, u, a, nil); err != nil {
						t.Fatal(err)
					}
					if err := Wait(); err != nil {
						t.Fatal(err)
					}
					if p, b := mxvPull.Value()-pulls, transposeBuilds.Value()-builds; p != 2 || b != 2 {
						t.Fatalf("the two calls ran %d pulls over %d transpose builds, want 2 and 2", p, b)
					}
					want := map[int]float64{}
					for k, v := range denseOf(t, a) {
						want[k.j] += ud[k.i] * v
					}
					wantVec(t, w2, want, "VxM after "+mu.name)
				})
			})
		}
	}
}

// TestMutatorsDropDerivedStores walks every way the primary store of a
// matrix (data, delta, pending) can change and requires that nothing derived
// from the old content survives it: no cached transpose, and content read
// afresh from the new store. A second pass starts from the store the dense
// ⟨+,×⟩ product committed (converted back from its bitmap, exact-size),
// which every mutator must treat as any other CSR store.
func TestMutatorsDropDerivedStores(t *testing.T) {
	const n = 8
	mutators := []struct {
		name   string
		mutate func(m *Matrix[float64]) error
	}{
		{"SetElement", func(m *Matrix[float64]) error { return m.SetElement(99, 2, 5) }},
		{"RemoveElement", func(m *Matrix[float64]) error { return m.RemoveElement(1, 1) }},
		{"Clear", func(m *Matrix[float64]) error { return m.Clear() }},
		{"Resize", func(m *Matrix[float64]) error { return m.Resize(n, n) }},
		{"ApplyUpdateBatch", func(m *Matrix[float64]) error {
			return m.ApplyUpdateBatch(streamBatch([3]int{0, 1, 9}, [3]int{1, 1, -1}))
		}},
		{"ApplyUpdateBatch+Compact", func(m *Matrix[float64]) error {
			if err := m.ApplyUpdateBatch(streamBatch([3]int{0, 1, 9})); err != nil {
				return err
			}
			// A read between the batch and the compaction rebuilds the
			// transpose over the merged view; the compaction must drop it too.
			m.transposed()
			return m.Compact()
		}},
		{"operation output", func(m *Matrix[float64]) error {
			double := UnaryOp[float64, float64]{Name: "double", F: func(x float64) float64 { return 2 * x }}
			return ApplyM(m, NoMask, NoAccum[float64](), double, m, nil)
		}},
		{"assign output", func(m *Matrix[float64]) error {
			return AssignMatrixScalar(m, NoMask, NoAccum[float64](), 7, []int{0}, []int{0, 3}, nil)
		}},
	}
	csr := func(t *testing.T) *Matrix[float64] {
		m, _ := newTestMatrix(t, rand.New(rand.NewSource(61)), n, n, 0.5)
		return m
	}
	denseProduct := func(t *testing.T) *Matrix[float64] {
		rng := rand.New(rand.NewSource(62))
		a, _ := newTestMatrix(t, rng, n, n, 0.6)
		b, _ := newTestMatrix(t, rng, n, n, 0.6)
		c, err := NewMatrix[float64](n, n)
		if err != nil {
			t.Fatal(err)
		}
		before := fmtFastOps.Value()
		if err := MxM(c, NoMask, NoAccum[float64](), plusTimesF64(t), a, b, nil); err != nil {
			t.Fatal(err)
		}
		if fmtFastOps.Value() == before {
			t.Fatal("set-up: MxM did not take the dense product")
		}
		return c
	}
	// cachedTranspose peeks at the transpose cache without the read (and
	// pending-update merge) that mdatWithTranspose performs.
	cachedTranspose := func(m *Matrix[float64]) *sparse.CSR[float64] {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.tcache
	}
	// expected applies the mutator to a second, identically built matrix
	// whose derived stores were never touched.
	expected := func(t *testing.T, build func(*testing.T) *Matrix[float64], mutate func(*Matrix[float64]) error) dmat {
		ref := build(t)
		if _, err := ref.SetMergePolicy(stream.Manual()); err != nil {
			t.Fatal(err)
		}
		if err := mutate(ref); err != nil {
			t.Fatal(err)
		}
		return denseOf(t, ref)
	}
	sources := []struct {
		name  string
		build func(*testing.T) *Matrix[float64]
	}{{"csr", csr}, {"dense-product", denseProduct}}
	for _, src := range sources {
		for _, mu := range mutators {
			t.Run(src.name+"/"+mu.name, func(t *testing.T) {
				withMode(t, Blocking, func() {
					want := expected(t, src.build, mu.mutate)
					m := src.build(t)
					if _, err := m.SetMergePolicy(stream.Manual()); err != nil {
						t.Fatal(err)
					}
					if m.transposed() == nil || cachedTranspose(m) == nil {
						t.Fatal("set-up: the transpose was not cached")
					}

					if err := mu.mutate(m); err != nil {
						t.Fatal(err)
					}
					if cachedTranspose(m) != nil {
						t.Error("the cached transpose survived the mutation")
					}
					equalDense(t, denseOf(t, m), want, "content after the mutation")
				})
			})
		}
	}
}

// userPlusTimesF64 is ⟨+,×⟩ built from user operators: no opcodes, so every
// multiply runs the reference loops and never the dense product.
func userPlusTimesF64(t *testing.T) Semiring[float64, float64, float64] {
	t.Helper()
	add, err := NewMonoid(BinaryOp[float64, float64, float64]{Name: "plus", F: func(x, y float64) float64 { return x + y }}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSemiring(add, BinaryOp[float64, float64, float64]{Name: "times", F: func(x, y float64) float64 { return x * y }})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKernelChoiceEquivalence runs MxM, MxV and VxM over operands of three
// fills twice: with the predefined ⟨+,×⟩, which lets the engine pick a
// kernel per call (the dense product from 4 % fill, push or pull by the
// frontier), and with the same functions as user operators, which run the
// reference loops. Both must equal the dense oracle: kernel choice never
// changes a result. Values are small integers, so every sum is exact.
func TestKernelChoiceEquivalence(t *testing.T) {
	for _, fill := range []float64{0.02, 0.3, 0.7} {
		t.Run(fmt.Sprintf("fill=%g", fill), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			a, da := newTestMatrix(t, rng, 60, 50, fill)
			b, db := newTestMatrix(t, rng, 50, 40, fill)
			u, ud := randVecModel(t, rng, 50, 0.5)
			f, fd := randVecModel(t, rng, 60, 1)
			wantC := oracleMxMWrite(dmat{}, da, 60, 50, db, 40, false, false, nil, nil, false, false, false, false)
			wantW, wantF := map[int]float64{}, map[int]float64{}
			for k, v := range da {
				if x, ok := ud[k.j]; ok {
					wantW[k.i] += v * x
				}
				wantF[k.j] += fd[k.i] * v
			}
			for _, ring := range []struct {
				name string
				s    Semiring[float64, float64, float64]
			}{{"predefined", plusTimesF64(t)}, {"user", userPlusTimesF64(t)}} {
				before := fmtFastOps.Value()
				c, _ := NewMatrix[float64](60, 40)
				if err := MxM(c, NoMask, NoAccum[float64](), ring.s, a, b, nil); err != nil {
					t.Fatal(err)
				}
				if dense, want := fmtFastOps.Value() != before, ring.name == "predefined" && fill >= 0.3; dense != want {
					t.Errorf("%s MxM: dense product ran = %v, want %v", ring.name, dense, want)
				}
				equalDense(t, denseOf(t, c), wantC, ring.name+" MxM")
				w, _ := NewVector[float64](60)
				if err := MxV(w, NoMaskV, NoAccum[float64](), ring.s, a, u, nil); err != nil {
					t.Fatal(err)
				}
				wantVec(t, w, wantW, ring.name+" MxV")
				v, _ := NewVector[float64](50)
				if err := VxM(v, NoMaskV, NoAccum[float64](), ring.s, f, a, nil); err != nil {
					t.Fatal(err)
				}
				wantVec(t, v, wantF, ring.name+" VxM")
			}
		})
	}
}

// TestMaskedAccumMxMSkipsDenseProduct: a B dense enough for the dense product
// under a mask, a complemented mask or an accumulator runs Gustavson's
// kernel, and its result equals the Figure 2 oracle's.
func TestMaskedAccumMxMSkipsDenseProduct(t *testing.T) {
	s := plusTimesF64(t)
	for _, tc := range []struct {
		name          string
		useMask, scmp bool
		accum         bool
	}{
		{"mask+accum", true, false, true},
		{"complemented mask+accum", true, true, true},
		{"accum", false, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			a, da := newTestMatrix(t, rng, 30, 25, 0.2)
			b, db := newTestMatrix(t, rng, 25, 35, 0.5)
			mask, stored, eff := newTestMask(t, rng, 30, 35, 0.4, 0.7)
			c, dc := newTestMatrix(t, rand.New(rand.NewSource(31)), 30, 35, 0.1)
			m, desc := NoMask, (*Descriptor)(nil)
			if tc.useMask {
				m = mask
			}
			if tc.scmp {
				desc = Desc().CompMask()
			}
			before := fmtFastOps.Value()
			if err := MxM(c, m, plusF64(), s, a, b, desc); err != nil {
				t.Fatal(err)
			}
			if fmtFastOps.Value() != before {
				t.Error("the dense product ran under a mask or an accumulator")
			}
			want := oracleMxMWrite(dc, da, 30, 25, db, 35, false, false, stored, eff, tc.useMask, tc.scmp, tc.accum, false)
			equalDense(t, denseOf(t, c), want, tc.name)
		})
	}
}

// TestUserOpNamedTimesNotFastPathed guards the dense product's gate: a user
// semiring whose operators reuse the predefined names but compute min and
// max carries no opcodes, whatever its names, and must run Gustavson's
// kernel over a B the dense product would take.
func TestUserOpNamedTimesNotFastPathed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n = 32
	a, da := newTestMatrix(t, rng, n, n, 0.3)
	b, db := newTestMatrix(t, rng, n, n, 0.6)
	minF := func(x, y float64) float64 { return math.Min(x, y) }
	maxF := func(x, y float64) float64 { return math.Max(x, y) }
	fake := Semiring[float64, float64, float64]{
		Add: Monoid[float64]{Op: BinaryOp[float64, float64, float64]{Name: "plus", F: minF}},
		Mul: BinaryOp[float64, float64, float64]{Name: "times", F: maxF},
	}
	c, err := NewMatrix[float64](n, n)
	if err != nil {
		t.Fatal(err)
	}
	before := StatsSnapshot().FastKernels
	if err := MxM(c, NoMask, NoAccum[float64](), fake, a, b, nil); err != nil {
		t.Fatal(err)
	}
	if StatsSnapshot().FastKernels != before {
		t.Error("mis-named user semiring took the dense product")
	}
	// min over k of max(a_ik, b_kj), wherever some k has both.
	want := dmat{}
	for ka, x := range da {
		for kb, y := range db {
			if ka.j != kb.i {
				continue
			}
			k, v := key{ka.i, kb.j}, maxF(x, y)
			if old, ok := want[k]; ok {
				v = minF(old, v)
			}
			want[k] = v
		}
	}
	equalDense(t, denseOf(t, c), want, "min-max MxM")
}

// TestBitmapPlusTimesFoldsFromFirstProduct: the ⟨+,×⟩ kernels fold an entry
// from its first product — the CSR MxV loops and the dense product over B's
// bitmap alike — so an entry whose only product is −0 stays −0 (0 + −0
// would be +0). Row 0 of A holds −1 at column 1 and u(1) = 0; in the
// product A·B, B's row 1 is zeros.
func TestBitmapPlusTimesFoldsFromFirstProduct(t *testing.T) {
	const n = 4
	s := plusTimesF64(t)
	a, err := NewMatrix[float64](n, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Build([]int{0, 1, 2, 3}, []int{1, 0, 2, 3}, []float64{-1, 2, 3, 4}, plusF64()); err != nil {
		t.Fatal(err)
	}
	u, err := NewVector[float64](n)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Build([]int{0, 1, 2, 3}, []float64{1, 0, 1, 1}, plusF64()); err != nil {
		t.Fatal(err)
	}
	w, err := NewVector[float64](n)
	if err != nil {
		t.Fatal(err)
	}
	if err := MxV(w, NoMaskV, NoAccum[float64](), s, a, u, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := w.ExtractElement(0); err != nil || !math.Signbit(got) || got != 0 {
		t.Fatalf("MxV: w(0) = %v (%v), want −0", got, err)
	}

	b, err := NewMatrix[float64](n, n)
	if err != nil {
		t.Fatal(err)
	}
	var is, js []int
	var vs []float64
	for j := 0; j < n; j++ {
		is, js, vs = append(is, 1), append(js, j), append(vs, 0)
	}
	if err := b.Build(is, js, vs, plusF64()); err != nil {
		t.Fatal(err)
	}
	before := StatsSnapshot().FastKernels
	c, err := NewMatrix[float64](n, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := MxM(c, NoMask, NoAccum[float64](), s, a, b, nil); err != nil {
		t.Fatal(err)
	}
	if StatsSnapshot().FastKernels == before {
		t.Fatal("MxM did not take the dense product")
	}
	for j := 0; j < n; j++ {
		if got, err := c.ExtractElement(0, j); err != nil || !math.Signbit(got) || got != 0 {
			t.Fatalf("MxM: C(0,%d) = %v (%v), want −0", j, got, err)
		}
	}
}

// TestPointUpdatesInvalidateTransposeCache: a point update to a matrix the
// dense product wrote, and which a pull has since cached the transpose of,
// is seen by the element path and by the next pull alike.
func TestPointUpdatesInvalidateTransposeCache(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	s := plusTimesF64(t)
	const n = 64
	a, _ := newTestMatrix(t, rng, n, n, 0.5)
	b, _ := newTestMatrix(t, rng, n, n, 0.5)
	c, err := NewMatrix[float64](n, n)
	if err != nil {
		t.Fatal(err)
	}
	before := fmtFastOps.Value()
	if err := MxM(c, NoMask, NoAccum[float64](), s, a, b, nil); err != nil {
		t.Fatal(err)
	}
	if fmtFastOps.Value() == before {
		t.Fatal("set-up: MxM did not take the dense product")
	}
	u, ud := randVecModel(t, rng, n, 1)
	// vxm pulls over C's transpose (a full u over a full C), building and
	// caching it on the first call, and checks the result against C's
	// content as the element path reads it.
	vxm := func(label string) {
		t.Helper()
		pulls := mxvPull.Value()
		w, _ := NewVector[float64](n)
		if err := VxM(w, NoMaskV, NoAccum[float64](), s, u, c, nil); err != nil {
			t.Fatal(err)
		}
		if mxvPull.Value() == pulls {
			t.Fatalf("%s: VxM did not pull", label)
		}
		want := map[int]float64{}
		for k, v := range denseOf(t, c) {
			want[k.j] += ud[k.i] * v
		}
		wantVec(t, w, want, label)
	}
	vxm("VxM before the update")
	if err := c.SetElement(123, 3, 3); err != nil {
		t.Fatal(err)
	}
	if v, err := c.ExtractElement(3, 3); err != nil || v != 123 {
		t.Fatalf("ExtractElement after SetElement: %v, %v", v, err)
	}
	vxm("VxM after SetElement")
	if err := c.RemoveElement(3, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExtractElement(3, 3); err == nil {
		t.Fatal("ExtractElement found a removed entry")
	}
	vxm("VxM after RemoveElement")
}

// TestDeferredDenseProduct: in nonblocking mode a dense ⟨+,×⟩ MxM and an
// MxV reading its result run deferred in one flush; the engine stats show
// the dense product ran, and the chain's results equal the dense oracle's.
func TestDeferredDenseProduct(t *testing.T) {
	withMode(t, NonBlocking, func() {
		rng := rand.New(rand.NewSource(41))
		s := plusTimesF64(t)
		a, da := newTestMatrix(t, rng, 40, 40, 0.3)
		b, db := newTestMatrix(t, rng, 40, 40, 0.6)
		before := StatsSnapshot()
		c, err := NewMatrix[float64](40, 40)
		if err != nil {
			t.Fatal(err)
		}
		if err := MxM(c, NoMask, NoAccum[float64](), s, a, b, nil); err != nil {
			t.Fatal(err)
		}
		u, ud := randVecModel(t, rng, 40, 1)
		w, err := NewVector[float64](40)
		if err != nil {
			t.Fatal(err)
		}
		if err := MxV(w, NoMaskV, NoAccum[float64](), s, c, u, nil); err != nil {
			t.Fatal(err)
		}
		if err := Wait(); err != nil {
			t.Fatal(err)
		}
		after := StatsSnapshot()
		if after.FastKernels != before.FastKernels+1 {
			t.Errorf("FastKernels %d -> %d, want one dense product", before.FastKernels, after.FastKernels)
		}
		if after.OpsEnqueued < before.OpsEnqueued+2 {
			t.Errorf("OpsEnqueued %d -> %d, want both products deferred", before.OpsEnqueued, after.OpsEnqueued)
		}
		want := oracleMxMWrite(dmat{}, da, 40, 40, db, 40, false, false, nil, nil, false, false, false, false)
		equalDense(t, denseOf(t, c), want, "deferred MxM content")
		wantW := map[int]float64{}
		for k, v := range want {
			wantW[k.i] += v * ud[k.j]
		}
		wantVec(t, w, wantW, "MxV over the deferred product")
	})
}
