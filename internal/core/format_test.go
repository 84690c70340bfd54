package core

import (
	"math"
	"math/rand"
	"testing"

	"graphblas/internal/format"
	"graphblas/internal/sparse"
	"graphblas/internal/stream"
)

// TestFormatForcedEquivalence runs the multiply family with each storage
// layout pinned on the matrix operand and checks the results are identical:
// format selection must never change semantics.
func TestFormatForcedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := plusTimesF64(t)
	for _, fill := range []float64{0.02, 0.3, 0.7} {
		a, _ := newTestMatrix(t, rng, 60, 50, fill)
		b, _ := newTestMatrix(t, rng, 50, 40, fill)
		u, err := NewVector[float64](50)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if rng.Float64() < 0.5 {
				if err := u.SetElement(float64(rng.Intn(9)+1), i); err != nil {
					t.Fatal(err)
				}
			}
		}

		runMxV := func(k format.Kind) dmat {
			t.Helper()
			if err := a.SetFormat(k); err != nil {
				t.Fatalf("SetFormat(%v): %v", k, err)
			}
			w, err := NewVector[float64](60)
			if err != nil {
				t.Fatal(err)
			}
			if err := MxV(w, NoMaskV, NoAccum[float64](), s, a, u, nil); err != nil {
				t.Fatalf("MxV under %v: %v", k, err)
			}
			is, vs, err := w.ExtractTuples()
			if err != nil {
				t.Fatal(err)
			}
			d := dmat{}
			for p := range is {
				d[key{is[p], 0}] = vs[p]
			}
			return d
		}
		want := runMxV(format.CSRKind)
		for _, k := range []format.Kind{format.BitmapKind, format.HyperKind, format.Auto} {
			equalDense(t, runMxV(k), want, "MxV/"+k.String())
		}
		if err := a.SetFormat(format.Auto); err != nil {
			t.Fatal(err)
		}

		runMxM := func(k format.Kind) dmat {
			t.Helper()
			if err := b.SetFormat(k); err != nil {
				t.Fatalf("SetFormat(%v): %v", k, err)
			}
			c, err := NewMatrix[float64](60, 40)
			if err != nil {
				t.Fatal(err)
			}
			if err := MxM(c, NoMask, NoAccum[float64](), s, a, b, nil); err != nil {
				t.Fatalf("MxM under %v: %v", k, err)
			}
			return denseOf(t, c)
		}
		wantM := runMxM(format.CSRKind)
		for _, k := range []format.Kind{format.BitmapKind, format.HyperKind, format.Auto} {
			equalDense(t, runMxM(k), wantM, "MxM/"+k.String())
		}
		if err := b.SetFormat(format.Auto); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFormatMaskedAccumEquivalence checks that the bitmap SpGEMM path agrees
// with the CSR path under masks (plain and complemented) and an accumulator,
// where the specialized adoption path must NOT be taken.
func TestFormatMaskedAccumEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s := plusTimesF64(t)
	a, _ := newTestMatrix(t, rng, 30, 25, 0.2)
	b, _ := newTestMatrix(t, rng, 25, 35, 0.5)
	mask, _, _ := newTestMask(t, rng, 30, 35, 0.4, 0.7)
	accum := plusF64()

	for _, scmp := range []bool{false, true} {
		var desc *Descriptor
		if scmp {
			desc = Desc().CompMask()
		}
		results := map[format.Kind]dmat{}
		for _, k := range []format.Kind{format.CSRKind, format.BitmapKind} {
			if err := b.SetFormat(k); err != nil {
				t.Fatal(err)
			}
			crng := rand.New(rand.NewSource(31))
			c, _ := newTestMatrix(t, crng, 30, 35, 0.1)
			if err := MxM(c, mask, accum, s, a, b, desc); err != nil {
				t.Fatalf("MxM masked under %v: %v", k, err)
			}
			results[k] = denseOf(t, c)
		}
		equalDense(t, results[format.BitmapKind], results[format.CSRKind], "masked/accum MxM bitmap vs csr")
	}
	if err := b.SetFormat(format.Auto); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveSelectionAndStats checks the engine's observable behavior: the
// policy picks the bitmap layout for a saturated operand, the specialized
// kernels actually run (stats counters move), and Format reports the choice.
func TestAdaptiveSelectionAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s := plusTimesF64(t)
	a, _ := newTestMatrix(t, rng, 64, 64, 0.5) // fill far above every bitmap threshold
	u, err := NewVector[float64](64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := u.SetElement(1, i); err != nil {
			t.Fatal(err)
		}
	}
	before := StatsSnapshot()
	w, err := NewVector[float64](64)
	if err != nil {
		t.Fatal(err)
	}
	if err := MxV(w, NoMaskV, NoAccum[float64](), s, a, u, nil); err != nil {
		t.Fatal(err)
	}
	after := StatsSnapshot()
	if after.BitmapKernels <= before.BitmapKernels {
		t.Errorf("BitmapKernels did not advance: %d -> %d", before.BitmapKernels, after.BitmapKernels)
	}
	if after.FastKernels <= before.FastKernels {
		t.Errorf("FastKernels did not advance: %d -> %d", before.FastKernels, after.FastKernels)
	}
	if after.FormatConversions <= before.FormatConversions {
		t.Errorf("FormatConversions did not advance: %d -> %d", before.FormatConversions, after.FormatConversions)
	}
	k, err := a.Format()
	if err != nil {
		t.Fatal(err)
	}
	if k != format.BitmapKind {
		t.Errorf("Format() = %v, want bitmap for a dense MxV operand", k)
	}
}

// TestSetFormatValidation pins the SetFormat error cases.
func TestSetFormatValidation(t *testing.T) {
	m, err := NewMatrix[float64](4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFormat(format.Kind(99)); err == nil {
		t.Error("unknown kind accepted")
	}
	big, err := NewMatrix[float64](1<<16, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.SetFormat(format.BitmapKind); err == nil {
		t.Error("forcing bitmap past the cell cap accepted")
	}
	if err := big.SetFormat(format.HyperKind); err != nil {
		t.Errorf("forcing hypersparse rejected: %v", err)
	}
}

// TestDeferredBitmapAdoption is the end-to-end check of the "materialize in
// the cheapest format" path: in nonblocking mode a plus-times MxM whose
// consumer is a multiply lands its result bitmap-resident (no CSR form
// built), and converting back for extraction still yields the right values.
func TestDeferredBitmapAdoption(t *testing.T) {
	withMode(t, NonBlocking, func() {
		rng := rand.New(rand.NewSource(41))
		s := plusTimesF64(t)
		a, da := newTestMatrix(t, rng, 40, 40, 0.3)
		b, db := newTestMatrix(t, rng, 40, 40, 0.6)
		c, err := NewMatrix[float64](40, 40)
		if err != nil {
			t.Fatal(err)
		}
		if err := MxM(c, NoMask, NoAccum[float64](), s, a, b, nil); err != nil {
			t.Fatal(err)
		}
		w, err := NewVector[float64](40)
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewVector[float64](40)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if err := u.SetElement(1, i); err != nil {
				t.Fatal(err)
			}
		}
		// The MxV enqueued after the MxM is C's next consumer; its hint must
		// make the deferred MxM materialize C as bitmap.
		if err := MxV(w, NoMaskV, NoAccum[float64](), s, c, u, nil); err != nil {
			t.Fatal(err)
		}
		if err := Wait(); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		bitmapResident := c.data == nil && c.bcache != nil
		c.mu.Unlock()
		if !bitmapResident {
			t.Error("deferred plus-times MxM result was not adopted bitmap-resident")
		}
		// Correctness of the whole chain against the dense oracle.
		want := oracleMxMWrite(dmat{}, da, 40, 40, db, 40, false, false, nil, nil, false, false, false, false)
		equalDense(t, denseOf(t, c), want, "deferred MxM content")
		is, vs, err := w.ExtractTuples()
		if err != nil {
			t.Fatal(err)
		}
		for p, i := range is {
			sum := 0.0
			for j := 0; j < 40; j++ {
				sum += want[key{i, j}]
			}
			if vs[p] != sum {
				t.Fatalf("w[%d] = %v, want %v", i, vs[p], sum)
			}
		}
	})
}

// TestUserOpNamedTimesNotFastPathed guards the fast-path gate: a user
// operator that reuses the builtin names but computes something else must
// not be routed through the arithmetic kernels.
func TestUserOpNamedTimesNotFastPathed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a, _ := newTestMatrix(t, rng, 32, 32, 0.6)
	if err := a.SetFormat(format.BitmapKind); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.SetFormat(format.Auto) }()
	u, err := NewVector[float64](32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := u.SetElement(2, i); err != nil {
			t.Fatal(err)
		}
	}
	// "times" that is actually max, "plus" that is actually min: user
	// operators carry no opcode, whatever their names, and take the generic
	// kernel.
	fake := Semiring[float64, float64, float64]{
		Add: Monoid[float64]{Op: BinaryOp[float64, float64, float64]{Name: "plus", F: func(x, y float64) float64 {
			if x < y {
				return x
			}
			return y
		}}},
		Mul: BinaryOp[float64, float64, float64]{Name: "times", F: func(x, y float64) float64 {
			if x > y {
				return x
			}
			return y
		}},
	}
	w, err := NewVector[float64](32)
	if err != nil {
		t.Fatal(err)
	}
	before := StatsSnapshot()
	if err := MxV(w, NoMaskV, NoAccum[float64](), fake, a, u, nil); err != nil {
		t.Fatal(err)
	}
	after := StatsSnapshot()
	if after.FastKernels != before.FastKernels {
		t.Error("mis-named user semiring took the arithmetic fast path")
	}
	// min-over-max result: every stored row yields min over k of max(a_ik, 2).
	is, vs, err := w.ExtractTuples()
	if err != nil {
		t.Fatal(err)
	}
	am := map[key]float64{}
	ais, ajs, avs, err := a.ExtractTuples()
	if err != nil {
		t.Fatal(err)
	}
	for p := range ais {
		am[key{ais[p], ajs[p]}] = avs[p]
	}
	for p, i := range is {
		best := 0.0
		has := false
		for j := 0; j < 32; j++ {
			if v, ok := am[key{i, j}]; ok {
				x := v
				if x < 2 {
					x = 2
				}
				if !has || x < best {
					best = x
					has = true
				}
			}
		}
		if !has || vs[p] != best {
			t.Fatalf("row %d: got %v want %v", i, vs[p], best)
		}
	}
}

// TestBitmapPlusTimesFoldsFromFirstProduct: the bitmap ⟨+,×⟩ fast paths
// fold an entry from its first product, as every other layout does, so an
// entry whose only product is −0 stays −0 (0 + −0 would be +0). Row 0 of A
// holds −1 at column 1 and u(1) = 0; in the product A·B, B's row 1 is zeros.
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
	if err := a.SetFormat(format.BitmapKind); err != nil {
		t.Fatal(err)
	}
	before := StatsSnapshot().FastKernels
	w, err := NewVector[float64](n)
	if err != nil {
		t.Fatal(err)
	}
	if err := MxV(w, NoMaskV, NoAccum[float64](), s, a, u, nil); err != nil {
		t.Fatal(err)
	}
	if StatsSnapshot().FastKernels == before {
		t.Fatal("MxV did not take the bitmap ⟨+,×⟩ fast path")
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
	if err := b.SetFormat(format.BitmapKind); err != nil {
		t.Fatal(err)
	}
	if err := a.SetFormat(format.CSRKind); err != nil {
		t.Fatal(err)
	}
	before = StatsSnapshot().FastKernels
	c, err := NewMatrix[float64](n, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := MxM(c, NoMask, NoAccum[float64](), s, a, b, nil); err != nil {
		t.Fatal(err)
	}
	if StatsSnapshot().FastKernels == before {
		t.Fatal("MxM did not take the bitmap ⟨+,×⟩ fast path")
	}
	for j := 0; j < n; j++ {
		if got, err := c.ExtractElement(0, j); err != nil || !math.Signbit(got) || got != 0 {
			t.Fatalf("MxM: C(0,%d) = %v (%v), want −0", j, got, err)
		}
	}
}

// TestPointUpdatesInvalidateFormatCaches checks that SetElement/Remove on a
// bitmap-cached (and bitmap-resident) matrix is reflected in later reads.
func TestPointUpdatesInvalidateFormatCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	s := plusTimesF64(t)
	a, _ := newTestMatrix(t, rng, 16, 16, 0.6)
	u, err := NewVector[float64](16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := u.SetElement(1, i); err != nil {
			t.Fatal(err)
		}
	}
	w, err := NewVector[float64](16)
	if err != nil {
		t.Fatal(err)
	}
	// First multiply builds the bitmap cache.
	if err := MxV(w, NoMaskV, NoAccum[float64](), s, a, u, nil); err != nil {
		t.Fatal(err)
	}
	// Point update, then read back through the element path and the kernel
	// path; both must see the new value.
	if err := a.SetElement(123, 3, 3); err != nil {
		t.Fatal(err)
	}
	if v, err := a.ExtractElement(3, 3); err != nil || v != 123 {
		t.Fatalf("ExtractElement after SetElement: %v, %v", v, err)
	}
	if err := MxV(w, NoMaskV, NoAccum[float64](), s, a, u, nil); err != nil {
		t.Fatal(err)
	}
	is, vs, err := w.ExtractTuples()
	if err != nil {
		t.Fatal(err)
	}
	sum3 := 0.0
	ais, ajs, avs, err := a.ExtractTuples()
	if err != nil {
		t.Fatal(err)
	}
	for p := range ais {
		if ais[p] == 3 {
			sum3 += avs[p]
		}
	}
	seen := false
	for p, i := range is {
		if i == 3 {
			seen = true
			if vs[p] != sum3 {
				t.Fatalf("row 3 after update: got %v want %v", vs[p], sum3)
			}
		}
	}
	_ = ajs
	if !seen {
		t.Fatal("row 3 missing from result")
	}
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
// from the old content survives it: no cached transpose, and bitmap and
// hypersparse forms that are built afresh — and from the new content — on
// the next read. A second pass starts from a bitmap-resident product (the
// kernel's bitmap is the content and data is nil, so there is nothing
// derived to prime), where dropping the derived stores must not drop the
// content with them.
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
			// A read between the batch and the compaction rebuilds the caches
			// over the merged view; the compaction must drop those too.
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
	bitmapResident := func(t *testing.T) *Matrix[float64] {
		rng := rand.New(rand.NewSource(62))
		a, _ := newTestMatrix(t, rng, n, n, 0.6)
		b, _ := newTestMatrix(t, rng, n, n, 0.6)
		if err := b.SetFormat(format.BitmapKind); err != nil {
			t.Fatal(err)
		}
		c, err := NewMatrix[float64](n, n)
		if err != nil {
			t.Fatal(err)
		}
		c.noteHint(format.HintMxV) // the product's consumer wants the bitmap
		if err := MxM(c, NoMask, NoAccum[float64](), plusTimesF64(t), a, b, nil); err != nil {
			t.Fatal(err)
		}
		return c
	}
	isBitmapResident := func(m *Matrix[float64]) bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.data == nil && m.bcache != nil
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
		ref.mdat() // a plain CSR store, whatever the kernel left
		if err := mutate(ref); err != nil {
			t.Fatal(err)
		}
		return denseOf(t, ref)
	}
	for _, mu := range mutators {
		t.Run("csr/"+mu.name, func(t *testing.T) {
			withMode(t, Blocking, func() {
				want := expected(t, csr, mu.mutate)
				m := csr(t)
				if _, err := m.SetMergePolicy(stream.Manual()); err != nil {
					t.Fatal(err)
				}
				m.transposed()
				if err := m.SetFormat(format.BitmapKind); err != nil {
					t.Fatal(err)
				}
				oldB := m.bitmapForRead(format.HintMxV)
				if err := m.SetFormat(format.HyperKind); err != nil {
					t.Fatal(err)
				}
				oldH := m.hyperForRead(format.HintMxV)
				if oldB == nil || oldH == nil || cachedTranspose(m) == nil {
					t.Fatal("set-up: derived stores were not built")
				}

				if err := mu.mutate(m); err != nil {
					t.Fatal(err)
				}
				if cachedTranspose(m) != nil {
					t.Error("the cached transpose survived the mutation")
				}
				if h := m.hyperForRead(format.HintMxV); h == oldH {
					t.Error("the hypersparse form survived the mutation")
				} else {
					equalDense(t, denseOfCSR(h.ToCSR()), want, "hypersparse form after the mutation")
				}
				if err := m.SetFormat(format.BitmapKind); err != nil {
					t.Fatal(err)
				}
				if b := m.bitmapForRead(format.HintMxV); b == oldB {
					t.Error("the bitmap form survived the mutation")
				} else {
					equalDense(t, denseOfCSR(b.ToCSR()), want, "bitmap form after the mutation")
				}
				equalDense(t, denseOf(t, m), want, "content after the mutation")
			})
		})
		t.Run("bitmap-resident/"+mu.name, func(t *testing.T) {
			withMode(t, Blocking, func() {
				want := expected(t, bitmapResident, mu.mutate)
				m := bitmapResident(t)
				if _, err := m.SetMergePolicy(stream.Manual()); err != nil {
					t.Fatal(err)
				}
				if !isBitmapResident(m) {
					t.Fatal("set-up: the plus-times product was not adopted bitmap-resident")
				}
				if err := mu.mutate(m); err != nil {
					t.Fatal(err)
				}
				equalDense(t, denseOf(t, m), want, "content after the mutation")
			})
		})
	}
}

func denseOfCSR(c *sparse.CSR[float64]) dmat {
	is, js, vs := c.Tuples()
	d := dmat{}
	for k := range is {
		d[key{is[k], js[k]}] = vs[k]
	}
	return d
}
