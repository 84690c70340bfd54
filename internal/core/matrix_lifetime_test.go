package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"graphblas/internal/faults"
	"graphblas/internal/format"
	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/pool"
	"graphblas/internal/sparse"
	"graphblas/internal/stream"
)

// Matrix store lifetimes: when an operation that supersedes a matrix's CSR
// commits, or the matrix is freed, the store's Ptr, ColIdx and Val go back
// to the pool (Matrix.snapshotState, Matrix.Free), and the mask-shaped
// kernels compute their next result into them. A store the matrix still
// holds, one a reader pinned (PinEpoch, MatrixIterate) and one a failed
// operation restores must never go back. These tests churn every shelf
// after the overwrites, so that an array recycled too early is written over
// and the damage shows, in both modes at 1, 2 and 4 workers.

// matLifetimeModes runs f in each execution mode at each worker count, in a
// fresh context.
func matLifetimeModes(t *testing.T, f func(t *testing.T)) {
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []Mode{Blocking, NonBlocking} {
			t.Run(fmt.Sprintf("%v/%dw", mode, workers), func(t *testing.T) {
				parallel.SetMaxWorkersForTest(t, workers)
				withMode(t, mode, func() { f(t) })
			})
		}
	}
}

// storeOf is m's committed main store.
func storeOf[D any](m *Matrix[D]) *sparse.CSR[D] {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.data
}

// csrShelved reports whether any array of d is on the pool's shelves.
func csrShelved[D any](d *sparse.CSR[D]) bool {
	return pool.Holds(d.Ptr) || pool.Holds(d.ColIdx) || pool.Holds(d.Val)
}

// csrAllShelved reports whether every array of d is on the pool's shelves.
func csrAllShelved[D any](d *sparse.CSR[D]) bool {
	return pool.Holds(d.Ptr) && pool.Holds(d.ColIdx) && pool.Holds(d.Val)
}

// shelved reports whether a store the matrix holds — its main store, its
// transpose or its merged view — has an array on the pool's shelves.
func (m *Matrix[D]) shelved() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range []*sparse.CSR[D]{m.data, m.tcache, m.mcache} {
		if d != nil && csrShelved(d) {
			return true
		}
	}
	return false
}

// csrBits is a store's content, values bit for bit.
func csrBits(d *sparse.CSR[float64]) string {
	nnz := d.NNZ()
	bits := make([]uint64, nnz)
	for k, x := range d.Val[:nnz] {
		bits[k] = math.Float64bits(x)
	}
	return fmt.Sprint(d.NRows, d.NCols, d.Ptr, d.ColIdx[:nnz], bits)
}

// matStoreBits is a matrix's committed content, read from its store without
// forcing or merging anything, so that a rolled-back (invalid) output can be
// compared too.
func matStoreBits(m *Matrix[float64]) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return csrBits(m.data) + fmt.Sprint(" pending ", len(m.pending), " delta ", m.delta.NNZ())
}

// churnMatShelves draws every array the pool's int, float64 and bool
// shelves hold in each size class a test matrix's arrays occupy, writes
// junk over it and shelves it again: a store recycled while something still
// reads it, or scratch drawn uncleared and read before it is written (a
// select's keep flags), now reads junk. Call it between flushes only.
func churnMatShelves() {
	churnClasses(func(s []int) {
		for i := range s {
			s[i] = -1
		}
	})
	churnClasses(func(s []float64) {
		for i := range s {
			s[i] = math.NaN()
		}
	})
	churnClasses(func(s []bool) {
		for i := range s {
			s[i] = true
		}
	})
}

func churnClasses[T any](junk func([]T)) {
	const shelf = 64 // the pool's per-class shelf capacity
	for class := 0; class <= 12; class++ {
		drawn := make([][]T, 0, shelf)
		for k := 0; k < shelf; k++ {
			s := pool.Vals[T](1 << class)
			junk(s)
			drawn = append(drawn, s)
		}
		for _, s := range drawn {
			pool.Recycle(s)
		}
	}
}

// drainMatShelves empties the int and float64 shelves of the classes a test
// matrix's arrays occupy, so that what a test recycles next finds room.
func drainMatShelves() {
	for class := 0; class <= 12; class++ {
		for k := 0; k < 64; k++ {
			pool.Vals[int](1 << class)
			pool.Vals[float64](1 << class)
		}
	}
}

// scaleInto runs c = k·a and completes it: a store of exact-size arrays.
func scaleInto(t *testing.T, c, a *Matrix[float64], k float64) {
	t.Helper()
	if err := ApplyM(c, NoMask, NoAccum[float64](), scaleOp(k), a, nil); err != nil {
		t.Fatalf("ApplyM: %v", err)
	}
	if err := Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// bandInto runs c = the entries of a within r of the diagonal and completes
// it: a select, whose result's arrays come from the pool.
func bandInto(t *testing.T, c, a *Matrix[float64], r int) {
	t.Helper()
	band := IndexUnaryOp[float64, bool]{Name: "band", F: func(_ float64, i, j int) bool { return j-i <= r && i-j <= r }}
	if err := SelectM(c, NoMask, NoAccum[float64](), band, a, nil); err != nil {
		t.Fatalf("SelectM: %v", err)
	}
	if err := Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestSupersededMatrixStoreGoesBack pins where an overwritten or freed
// matrix's arrays go: back to the pool when the overwrite commits or the
// matrix is freed, a dropped transpose's too, but not while the store is
// still the matrix's own; and a select computes into the arrays of the
// result it overwrote two calls before.
func TestSupersededMatrixStoreGoesBack(t *testing.T) {
	matLifetimeModes(t, func(t *testing.T) {
		watch := assertQuiescent(t)
		// A collection drops the weakly shelved arrays this test looks for.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		drainMatShelves()
		rng := rand.New(rand.NewSource(7))
		const n = 24
		a, _ := newTestMatrix(t, rng, n, n, 0.3)
		w, _ := NewMatrix[float64](n, n)
		scaleInto(t, w, a, 2)
		prev := storeOf(w)
		tc := w.transposed()
		if err := w.SetElement(5, 0, 1); err != nil { // keeps the main store, drops the transpose
			t.Fatal(err)
		}
		if err := Wait(); err != nil {
			t.Fatal(err)
		}
		if csrShelved(prev) {
			t.Fatal("a store the matrix still holds was recycled")
		}
		if !csrAllShelved(tc) {
			t.Fatal("the dropped transpose's arrays did not go back to the pool")
		}
		scaleInto(t, w, a, 3)
		if !csrAllShelved(prev) {
			t.Fatal("the superseded store's arrays did not go back to the pool")
		}
		cur := storeOf(w)
		if err := w.Free(); err != nil {
			t.Fatal(err)
		}
		if !csrAllShelved(cur) {
			t.Fatal("a freed matrix's arrays did not go back to the pool")
		}

		s, _ := NewMatrix[float64](n, n)
		bandInto(t, s, a, 3)
		first := storeOf(s)
		bandInto(t, s, a, 3) // releases first once it commits
		bandInto(t, s, a, 3) // computes into first's arrays
		third := storeOf(s)
		if unsafe.SliceData(third.Val) != unsafe.SliceData(first.Val) || unsafe.SliceData(third.ColIdx) != unsafe.SliceData(first.ColIdx) {
			t.Fatal("a select did not compute into the arrays of the result it superseded")
		}
		if obs.StoresRecycled.Value() == 0 {
			t.Fatal("no store was recycled")
		}
		watch(a, s)
	})
}

// TestPinnedMatrixStoresSurvive: a store a pinned epoch reads, one an
// iterator reads, and a main store that is also the merged view survive
// the overwrites that supersede them and a churn of every shelf, and still
// read what they read before.
func TestPinnedMatrixStoresSurvive(t *testing.T) {
	matLifetimeModes(t, func(t *testing.T) {
		watch := assertQuiescent(t)
		rng := rand.New(rand.NewSource(11))
		const n = 24
		a, _ := newTestMatrix(t, rng, n, n, 0.35)
		b, _ := newTestMatrix(t, rng, n, n, 0.25)
		w, _ := NewMatrix[float64](n, n)
		scratch, _ := NewMatrix[float64](n, n)

		bandInto(t, w, a, 4)
		ep, err := w.PinEpoch()
		if err != nil {
			t.Fatal(err)
		}
		epStore := storeOf(w)
		epWant := fmt.Sprint(ep.Tuples())

		bandInto(t, w, b, 5)
		it, err := MatrixIterate(w)
		if err != nil {
			t.Fatal(err)
		}
		itStore := storeOf(w)
		is, js, vs, err := w.ExtractTuples()
		if err != nil {
			t.Fatal(err)
		}

		// An empty overlay makes the merged view the main store itself; a
		// point update then drops the view and keeps the store.
		m, _ := NewMatrix[float64](n, n)
		bandInto(t, m, a, 2)
		m.mu.Lock()
		m.delta = format.DeltaFromTuples[float64](n, n, nil)
		m.mu.Unlock()
		if m.mdat() != storeOf(m) {
			t.Fatal("the merged view over an empty overlay is not the main store")
		}
		mStore := storeOf(m)
		mWant := csrBits(mStore)
		if err := m.SetElement(7, 0, n-1); err != nil {
			t.Fatal(err)
		}
		if err := Wait(); err != nil {
			t.Fatal(err)
		}

		for r := 0; r < 6; r++ {
			scaleInto(t, w, b, float64(r))
			bandInto(t, w, a, r)
			bandInto(t, scratch, b, r)
			churnMatShelves()
		}
		if got := fmt.Sprint(ep.Tuples()); got != epWant || csrShelved(epStore) {
			t.Fatalf("the pinned epoch's store changed: reads %s, pinned %s", got, epWant)
		}
		k := 0
		for i, j, x, ok := it.Next(); ok; i, j, x, ok = it.Next() {
			if k >= len(is) || i != is[k] || j != js[k] || math.Float64bits(x) != math.Float64bits(vs[k]) {
				t.Fatalf("iterator entry %d = (%d, %d, %v), opened on %v %v %v", k, i, j, x, is, js, vs)
			}
			k++
		}
		if k != len(is) || csrShelved(itStore) {
			t.Fatalf("iterator yielded %d entries, opened on %d", k, len(is))
		}
		if got := csrBits(storeOf(m)); storeOf(m) != mStore || got != mWant || csrShelved(mStore) {
			t.Fatalf("the main store that was the merged view changed: %s, held %s", got, mWant)
		}
		if obs.StoresRecycled.Value() == 0 {
			t.Fatal("no store was recycled: the overwrites did not exercise the free list")
		}
		watch(a, b, w, scratch, m)
	})
}

// TestFailedMatrixOverwriteRestoresStore: once a matrix's stores have come
// from the pool for a few overwrites, a kernel that panics half way and an
// operation the fault plan fails both leave it holding its prior store bit
// for bit, and that store survives the pool being churned after.
func TestFailedMatrixOverwriteRestoresStore(t *testing.T) {
	matLifetimeModes(t, func(t *testing.T) {
		watch := assertQuiescent(t)
		rng := rand.New(rand.NewSource(13))
		const n = 24
		a, _ := newTestMatrix(t, rng, n, n, 0.4)
		w, _ := NewMatrix[float64](n, n)
		scratch, _ := NewMatrix[float64](n, n)
		for r := 1; r <= 4; r++ {
			bandInto(t, w, a, r)
			bandInto(t, scratch, w, r-1)
		}
		before := matStoreBits(w)
		store := storeOf(w)
		calls := 0
		boom := IndexUnaryOp[float64, bool]{Name: "boom", F: func(float64, int, int) bool {
			if calls++; calls == 5 {
				panic("operator bug")
			}
			return true
		}}
		err := SelectM(w, NoMask, NoAccum[float64](), boom, a, nil)
		if err == nil {
			err = Wait()
		}
		if InfoOf(err) != PanicInfo {
			t.Fatalf("faulty operator: %v", err)
		}
		if got := matStoreBits(w); got != before {
			t.Fatalf("panicked overwrite left %s, held %s", got, before)
		}
		withFaults(t, 1, faults.Rule{Site: "SelectM", Kind: faults.OOM, Times: 1})
		band := IndexUnaryOp[float64, bool]{Name: "all", F: func(float64, int, int) bool { return true }}
		err = SelectM(w, NoMask, NoAccum[float64](), band, a, nil)
		if err == nil {
			err = Wait()
		}
		if InfoOf(err) != OutOfMemory {
			t.Fatalf("injected fault: %v", err)
		}
		for r := 0; r < 4; r++ {
			bandInto(t, scratch, a, r)
		}
		churnMatShelves()
		if got := matStoreBits(w); got != before || storeOf(w) != store || csrShelved(store) {
			t.Fatalf("after the pool was churned, the restored matrix holds %s, held %s", got, before)
		}
		watch(a, w, scratch)
	})
}

// TestNoTwoMatrixStoresShareAnArray pins the rule the recycling of matrix
// stores rests on: after every kind of operation that writes a matrix, no
// array of a matrix store — a main store, a transpose, a merged view — is
// also an array of another matrix store or of a vector. A store released
// whole can then hand nothing back that another store still reads. The one
// shared array is the zero row pointer of empty matrices, which nothing
// writes or releases; a row pointer of zeros is therefore not compared. And
// no store a matrix or vector still holds has an array on the pool's
// shelves: an operation released nothing its operands still read.
func TestNoTwoMatrixStoresShareAnArray(t *testing.T) {
	for _, mode := range []Mode{Blocking, NonBlocking} {
		t.Run(mode.String(), func(t *testing.T) {
			parallel.SetMaxWorkersForTest(t, 2)
			withMode(t, mode, func() { noSharedMatrixArrays(t) })
		})
	}
}

func noSharedMatrixArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 12
	s := plusTimesF64(t)
	a, _ := newTestMatrix(t, rng, n, n, 0.3)
	b, _ := newTestMatrix(t, rng, n, n, 0.3)
	mask, _, _ := newTestMask(t, rng, n, n, 0.5, 0.7)
	c, _ := NewMatrix[float64](n, n)
	d, _ := NewMatrix[float64](n, n)
	small, _ := newTestMatrix(t, rng, 3, 3, 0.5)
	kron, _ := NewMatrix[float64](9, 9)
	u := buildVector(t, n, 0.5, rng)
	v, _ := NewVector[float64](n)
	mats := []*Matrix[float64]{a, b, c, d, small, kron}
	vecs := []*Vector[float64]{u, v}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	keepOdd := IndexUnaryOp[float64, bool]{Name: "odd", F: func(_ float64, i, j int) bool { return (i+j)%2 == 1 }}
	keepAll := IndexUnaryOp[float64, bool]{Name: "all", F: func(float64, int, int) bool { return true }}
	rowid := IndexUnaryOp[float64, float64]{Name: "rowid", F: func(x float64, i, _ int) float64 { return x + float64(i) }}
	batch := stream.NewBatch[float64]()
	batch.Insert(1, 2, 4)
	batch.Insert(3, 3, 5)
	batch.Delete(0, 0)
	steps := []struct {
		name string
		run  func() error
	}{
		{"MxM", func() error { return MxM(c, NoMask, NoAccum[float64](), s, a, b, nil) }},
		{"MxM masked", func() error { return MxM(c, mask, NoAccum[float64](), s, a, b, Desc().ReplaceOutput()) }},
		{"MxM dot", func() error { return MxM(c, mask, NoAccum[float64](), s, a, b, Desc().Transpose1().ReplaceOutput()) }},
		{"MxM complemented", func() error { return MxM(d, mask, NoAccum[float64](), s, a, b, Desc().CompMask()) }},
		{"MxM accum", func() error { return MxM(d, NoMask, plusF64(), s, a, c, Desc().Transpose0()) }},
		{"EWiseAddM", func() error { return EWiseAddM(c, NoMask, NoAccum[float64](), plusF64(), a, b, nil) }},
		{"EWiseMultM masked", func() error { return EWiseMultM(d, mask, NoAccum[float64](), plusF64(), a, c, nil) }},
		{"EWiseUnionM", func() error { return EWiseUnionM(c, NoMask, NoAccum[float64](), plusF64(), a, 1, b, 2, nil) }},
		{"ApplyM", func() error { return ApplyM(d, NoMask, NoAccum[float64](), scaleOp(2), c, nil) }},
		{"ApplyIndexOpM", func() error { return ApplyIndexOpM(c, NoMask, NoAccum[float64](), rowid, a, nil) }},
		{"SelectM", func() error { return SelectM(d, NoMask, NoAccum[float64](), keepOdd, a, nil) }},
		{"SelectM all", func() error { return SelectM(c, NoMask, NoAccum[float64](), keepAll, b, nil) }},
		{"Transpose", func() error { return Transpose(c, NoMask, NoAccum[float64](), a, nil) }},
		{"Transpose copy", func() error { return Transpose(d, NoMask, NoAccum[float64](), a, Desc().Transpose0()) }},
		{"Transpose masked", func() error { return Transpose(c, mask, NoAccum[float64](), b, nil) }},
		{"Transpose accum", func() error { return Transpose(d, NoMask, plusF64(), b, nil) }},
		{"ExtractSubmatrix", func() error { return ExtractSubmatrix(c, NoMask, NoAccum[float64](), a, All, All, nil) }},
		{"AssignMatrix", func() error { return AssignMatrix(d, NoMask, NoAccum[float64](), a, All, All, nil) }},
		{"AssignMatrixScalar", func() error { return AssignMatrixScalar(c, mask, NoAccum[float64](), 3, All, All, nil) }},
		{"AssignRow", func() error { return AssignRow(d, NoMaskV, NoAccum[float64](), u, 2, All, nil) }},
		{"AssignCol", func() error { return AssignCol(c, NoMaskV, NoAccum[float64](), u, All, 5, nil) }},
		{"Kronecker", func() error { return Kronecker(kron, NoMask, NoAccum[float64](), plusF64(), small, small, nil) }},
		{"Resize", func() error { return small.Resize(2, 2) }},
		{"Clear", func() error { return d.Clear() }},
		{"SetElement", func() error { return c.SetElement(9, 4, 4) }},
		{"RemoveElement", func() error { return c.RemoveElement(4, 4) }},
		{"ApplyUpdateBatch", func() error { return b.ApplyUpdateBatch(batch) }},
		{"merged view", func() error { _, err := b.NVals(); return err }},
		{"Compact", func() error { return b.Compact() }},
		{"ReduceMatrixToVector", func() error { return ReduceMatrixToVector(v, NoMaskV, NoAccum[float64](), plusMonoidF64(t), a, nil) }},
		{"ExtractColVector", func() error { return ExtractColVector(v, NoMaskV, NoAccum[float64](), a, all, 3, nil) }},
		{"MxV", func() error { return MxV(v, NoMaskV, NoAccum[float64](), s, a, u, Desc().Transpose0()) }},
		{"Dup", func() error {
			m, err := a.Dup()
			mats = append(mats, m)
			return err
		}},
		{"Diag", func() error {
			m, err := Diag(u, 1)
			mats = append(mats, m)
			return err
		}},
		{"MatrixImportCSR", func() error {
			ptr, idx, val, err := MatrixExportCSR(c)
			if err != nil {
				return err
			}
			m, err := MatrixImportCSR(n, n, ptr, idx, val)
			mats = append(mats, m)
			return err
		}},
		{"MatrixDeserialize", func() error {
			var buf bytes.Buffer
			if err := MatrixSerialize(a, &buf); err != nil {
				return err
			}
			m, err := MatrixDeserialize[float64](&buf)
			mats = append(mats, m)
			return err
		}},
	}
	for _, st := range steps {
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if err := Wait(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if clash := sharedMatrixArray(mats, vecs); clash != "" {
			t.Fatalf("after %s: %s", st.name, clash)
		}
		for k, m := range mats {
			if m.shelved() {
				t.Fatalf("after %s: matrix %d holds an array on the pool's shelves", st.name, k)
			}
		}
		for k, v := range vecs {
			if v.shelved() {
				t.Fatalf("after %s: vector %d holds an array on the pool's shelves", st.name, k)
			}
		}
	}
}

// plusMonoidF64 is the ⟨+, 0⟩ monoid over float64.
func plusMonoidF64(t *testing.T) Monoid[float64] {
	t.Helper()
	add, err := NewMonoid(plusF64(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return add
}

// span is one array's address range, labelled for the report.
type span struct {
	lo, hi uintptr
	label  string
}

func spanOf[T any](s []T, label string) (span, bool) {
	if cap(s) == 0 {
		return span{}, false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	var zero T
	return span{lo, lo + uintptr(cap(s))*unsafe.Sizeof(zero), label}, true
}

// sharedMatrixArray describes an array of a matrix store that overlaps an
// array of another store, matrix or vector, or returns "".
func sharedMatrixArray(mats []*Matrix[float64], vecs []*Vector[float64]) string {
	var matSpans, others []span
	for k, m := range mats {
		m.mu.Lock()
		stores := []*sparse.CSR[float64]{m.data, m.tcache, m.mcache}
		m.mu.Unlock()
		for s, d := range stores {
			if d == nil || slices.Contains(stores[:s], d) {
				continue
			}
			label := fmt.Sprintf("matrix %d store %d", k, s)
			if !allZero(d.Ptr) {
				if sp, ok := spanOf(d.Ptr, label+" Ptr"); ok {
					matSpans = append(matSpans, sp)
				}
			}
			if sp, ok := spanOf(d.ColIdx, label+" ColIdx"); ok {
				matSpans = append(matSpans, sp)
			}
			if sp, ok := spanOf(d.Val, label+" Val"); ok {
				matSpans = append(matSpans, sp)
			}
		}
	}
	for k, v := range vecs {
		v.mu.Lock()
		d := v.data
		v.mu.Unlock()
		if sp, ok := spanOf(d.Idx, fmt.Sprintf("vector %d Idx", k)); ok {
			others = append(others, sp)
		}
		if sp, ok := spanOf(d.Val, fmt.Sprintf("vector %d Val", k)); ok {
			others = append(others, sp)
		}
	}
	for i, x := range matSpans {
		for _, y := range append(matSpans[i+1:], others...) {
			if x.lo < y.hi && y.lo < x.hi {
				return fmt.Sprintf("%s shares its array with %s", x.label, y.label)
			}
		}
	}
	return ""
}

func allZero(s []int) bool {
	for _, x := range s {
		if x != 0 {
			return false
		}
	}
	return true
}

// TestBuildMatrixInForcesNothing: BuildMatrixIn builds its matrix at once
// and leaves the context's pending work — a failing operation included —
// to its owner, and checks its tuples as Build does.
func TestBuildMatrixInForcesNothing(t *testing.T) {
	withMode(t, NonBlocking, func() {
		u := seqVector(t, 4, 1)
		w, _ := NewVector[float64](4)
		boom := UnaryOp[float64, float64]{Name: "boom", F: func(float64) float64 { panic("operator bug") }}
		if err := ApplyV(w, NoMaskV, NoAccum[float64](), boom, u, nil); err != nil {
			t.Fatal(err)
		}
		m, err := BuildMatrixIn(nil, 3, 3, []int{0, 2}, []int{1, 2}, []float64{5, 6}, NoAccum[float64]())
		if err != nil {
			t.Fatalf("BuildMatrixIn with work pending: %v", err)
		}
		if got := csrBits(storeOf(m)); got != csrBits(&sparse.CSR[float64]{NRows: 3, NCols: 3, Ptr: []int{0, 1, 1, 2}, ColIdx: []int{1, 2}, Val: []float64{5, 6}}) {
			t.Fatalf("built %s", got)
		}
		if err := Wait(); InfoOf(err) != PanicInfo {
			t.Fatalf("the pending operation's owner got %v, want its Panic error", err)
		}
		if _, err := BuildMatrixIn(nil, 3, 3, []int{3}, []int{0}, []float64{1}, NoAccum[float64]()); InfoOf(err) != InvalidIndex {
			t.Fatalf("row out of range: %v", err)
		}
		if _, err := BuildMatrixIn(nil, 3, 3, []int{1, 1}, []int{0, 0}, []float64{1, 2}, NoAccum[float64]()); InfoOf(err) != InvalidValue {
			t.Fatalf("duplicate with no dup operator: %v", err)
		}
		if _, err := BuildMatrixIn(nil, 0, 3, nil, nil, []float64(nil), NoAccum[float64]()); InfoOf(err) != InvalidValue {
			t.Fatalf("zero rows: %v", err)
		}
	})
}

// TestMatrixStoresSupersededConcurrently: under the DAG scheduler, one flush
// overwrites four matrices in independent branches again and again, each
// overwrite reading the matrix the last one wrote, so their stores are
// released on concurrent settles and drawn again by concurrent selects.
// Every matrix ends holding its model, and none holds an array on the
// shelves. The CI race job runs it with -race.
func TestMatrixStoresSupersededConcurrently(t *testing.T) {
	withDag(t, func() {
		watch := assertQuiescent(t)
		rng := rand.New(rand.NewSource(23))
		const n, branches, rounds = 32, 4, 6
		a, model := newTestMatrix(t, rng, n, n, 0.4)
		band := func(r int) IndexUnaryOp[float64, bool] {
			return IndexUnaryOp[float64, bool]{Name: "band", F: func(_ float64, i, j int) bool { return j-i <= r && i-j <= r }}
		}
		ws := make([]*Matrix[float64], branches)
		for k := range ws {
			ws[k], _ = NewMatrix[float64](n, n)
		}
		before := StatsSnapshot().ParallelFlushes
		for round := 0; round < rounds; round++ {
			for k, w := range ws {
				if err := SelectM(w, NoMask, NoAccum[float64](), band(n), a, nil); err != nil {
					t.Fatal(err)
				}
				if err := SelectM(w, NoMask, NoAccum[float64](), band(k+round), w, nil); err != nil {
					t.Fatal(err)
				}
				if err := ApplyM(w, NoMask, NoAccum[float64](), scaleOp(2), w, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := Wait(); err != nil {
				t.Fatal(err)
			}
			churnMatShelves()
			for k, w := range ws {
				want := dmat{}
				for key, x := range model {
					if key.j-key.i <= k+round && key.i-key.j <= k+round {
						want[key] = 2 * x
					}
				}
				equalDense(t, denseOf(t, w), want, fmt.Sprintf("round %d branch %d", round, k))
			}
		}
		if StatsSnapshot().ParallelFlushes == before {
			t.Fatal("no flush ran on the DAG")
		}
		watch(a, ws[0], ws[1], ws[2], ws[3])
	})
}
