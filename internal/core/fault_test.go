package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"graphblas/internal/faults"
)

// withFaults installs a fault plan for the duration of a test.
func withFaults(t *testing.T, seed int64, rules ...faults.Rule) {
	t.Helper()
	faults.Configure(seed, rules...)
	t.Cleanup(faults.Disable)
}

// committedTuples peeks at a matrix's committed store directly (in-package),
// bypassing the invalid-object guard of the public read methods: the point
// of the rollback tests is exactly to observe the contents of an object the
// API reports as invalid.
func committedTuples(m *Matrix[float64]) dmat {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushPendingLocked()
	d := dmat{}
	is, js, vs := m.data.Tuples()
	for k := range is {
		d[key{is[k], js[k]}] = vs[k]
	}
	return d
}

// TestFaults_OpLevelRollback: an injected op-level fault fails the operation
// and poisons the output, but the output's committed contents are rolled
// back intact — invalid but restorable — and a full overwrite rehabilitates
// it, per Section V.
func TestFaults_OpLevelRollback(t *testing.T) {
	assertQuiescent(t)
	withMode(t, NonBlocking, func() {
		s := plusTimesF64(t)
		a, _ := NewMatrix[float64](3, 3)
		_ = a.Build([]int{0, 1, 2}, []int{1, 2, 0}, []float64{1, 2, 3}, NoAccum[float64]())
		c, _ := NewMatrix[float64](3, 3)
		_ = c.Build([]int{0, 2}, []int{0, 1}, []float64{7, 9}, NoAccum[float64]())
		if err := Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		before := committedTuples(c)

		withFaults(t, 1, faults.Rule{Site: "MxM", Kind: faults.OOM, Times: 1})
		// Accumulating MxM so dead-store elimination cannot skip it.
		if err := MxM(c, NoMask, plusF64(), s, a, a, nil); err != nil {
			t.Fatalf("MxM enqueue: %v", err)
		}
		if err := Wait(); InfoOf(err) != OutOfMemory {
			t.Fatalf("Wait: got %v want OutOfMemory", err)
		}
		if _, err := c.NVals(); InfoOf(err) != InvalidObject {
			t.Fatalf("failed output not invalid: %v", err)
		}
		equalDense(t, committedTuples(c), before, "rolled-back contents")

		st := StatsSnapshot()
		if st.FaultsInjected == 0 {
			t.Fatalf("FaultsInjected not counted: %+v", st)
		}
		if st.Rollbacks == 0 {
			t.Fatalf("Rollbacks not counted: %+v", st)
		}

		// Full overwrite rehabilitates; the new content is the new result.
		if err := Transpose(c, NoMask, NoAccum[float64](), a, nil); err != nil {
			t.Fatalf("Transpose: %v", err)
		}
		if err := Wait(); err != nil {
			t.Fatalf("Wait after rehabilitation: %v", err)
		}
		want := dmat{{1, 0}: 1, {2, 1}: 2, {0, 2}: 3}
		equalDense(t, denseOf(t, c), want, "rehabilitated")
	})
}

// TestFaults_LastErrorClearedOnSuccess is the satellite regression test: a
// successful method supersedes the previous GrB_error string in blocking
// mode, and a clean flush does the same in nonblocking mode.
func TestFaults_LastErrorClearedOnSuccess(t *testing.T) {
	assertQuiescent(t)
	withMode(t, Blocking, func() {
		withFaults(t, 1, faults.Rule{Site: "Transpose", Kind: faults.KernelErr, Times: 1})
		a, _ := NewMatrix[float64](2, 2)
		_ = a.Build([]int{0}, []int{1}, []float64{1}, NoAccum[float64]())
		c, _ := NewMatrix[float64](2, 2)
		if err := Transpose(c, NoMask, NoAccum[float64](), a, nil); InfoOf(err) != PanicInfo {
			t.Fatalf("injected kernel failure: %v", err)
		}
		if LastError() == "" {
			t.Fatal("LastError empty right after a failure")
		}
		if err := Transpose(c, NoMask, NoAccum[float64](), a, nil); err != nil {
			t.Fatalf("retry: %v", err)
		}
		if got := LastError(); got != "" {
			t.Fatalf("LastError stale after success: %q", got)
		}
	})
	withMode(t, NonBlocking, func() {
		withFaults(t, 1, faults.Rule{Site: "Transpose", Kind: faults.KernelErr, Times: 1})
		a, _ := NewMatrix[float64](2, 2)
		_ = a.Build([]int{0}, []int{1}, []float64{1}, NoAccum[float64]())
		c, _ := NewMatrix[float64](2, 2)
		_ = Transpose(c, NoMask, NoAccum[float64](), a, nil)
		if err := Wait(); InfoOf(err) != PanicInfo {
			t.Fatalf("Wait: %v", err)
		}
		if LastError() == "" {
			t.Fatal("LastError empty after failed sequence")
		}
		d, _ := NewMatrix[float64](2, 2)
		_ = Transpose(d, NoMask, NoAccum[float64](), a, nil)
		if err := Wait(); err != nil {
			t.Fatalf("clean Wait: %v", err)
		}
		if got := LastError(); got != "" {
			t.Fatalf("LastError stale after clean flush: %q", got)
		}
	})
}

// TestFaults_SequenceErrorLog: Wait reports the first error of the sequence;
// SequenceErrors exposes every failure with op names and program-order
// positions, and survives the end of the sequence.
func TestFaults_SequenceErrorLog(t *testing.T) {
	assertQuiescent(t)
	withMode(t, NonBlocking, func() {
		withFaults(t, 1, faults.Rule{Site: "MxM", Kind: faults.OOM})
		s := plusTimesF64(t)
		a, _ := NewMatrix[float64](3, 3)
		_ = a.Build([]int{0, 1, 2}, []int{1, 2, 0}, []float64{1, 2, 3}, NoAccum[float64]())
		c, _ := NewMatrix[float64](3, 3)
		d, _ := NewMatrix[float64](3, 3)
		e, _ := NewMatrix[float64](3, 3)
		_ = MxM(c, NoMask, plusF64(), s, a, a, nil)          // pos 0: fails
		_ = Transpose(d, NoMask, NoAccum[float64](), a, nil) // pos 1: succeeds
		_ = MxM(e, NoMask, plusF64(), s, a, a, nil)          // pos 2: fails
		if err := Wait(); InfoOf(err) != OutOfMemory {
			t.Fatalf("Wait: %v", err)
		}
		log := SequenceErrors()
		if len(log) != 2 {
			t.Fatalf("log has %d entries, want 2: %v", len(log), log)
		}
		if log[0].Pos != 0 || log[0].Op != "MxM" || InfoOf(log[0].Err) != OutOfMemory {
			t.Fatalf("entry 0: %v", log[0])
		}
		if log[1].Pos != 2 || log[1].Op != "MxM" {
			t.Fatalf("entry 1: %v", log[1])
		}
		// The log of the terminated sequence stays readable until the next
		// sequence terminates.
		if again := SequenceErrors(); len(again) != 2 {
			t.Fatalf("retired log lost: %v", again)
		}
		// A fresh clean sequence replaces it.
		faults.Disable()
		f, _ := NewMatrix[float64](3, 3)
		_ = Transpose(f, NoMask, NoAccum[float64](), a, nil)
		if err := Wait(); err != nil {
			t.Fatalf("clean Wait: %v", err)
		}
		if log := SequenceErrors(); len(log) != 0 {
			t.Fatalf("log not cleared by new sequence: %v", log)
		}
	})
}

// buildDenseMatrix fills an n×n matrix about p full with values from rng.
func buildDenseMatrix(t *testing.T, n int, p float64, rng *rand.Rand) *Matrix[float64] {
	t.Helper()
	m, _ := newTestMatrix(t, rng, n, n, p)
	return m
}

// buildVector fills a size-n vector about p full.
func buildVector(t *testing.T, n int, p float64, rng *rand.Rand) *Vector[float64] {
	t.Helper()
	v, err := NewVector[float64](n)
	if err != nil {
		t.Fatalf("NewVector: %v", err)
	}
	var idx []int
	var val []float64
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			idx = append(idx, i)
			val = append(val, float64(rng.Intn(9)+1))
		}
	}
	if err := v.Build(idx, val, NoAccum[float64]()); err != nil {
		t.Fatalf("Build vector: %v", err)
	}
	return v
}

func vecTuples(t *testing.T, v *Vector[float64]) map[int]float64 {
	t.Helper()
	idx, val, err := v.ExtractTuples()
	if err != nil {
		t.Fatalf("ExtractTuples: %v", err)
	}
	out := map[int]float64{}
	for k := range idx {
		out[idx[k]] = val[k]
	}
	return out
}

// TestFaults_DenseProductFallsBackToGustavson: the dense ⟨+,×⟩ product is
// the engine's own choice over Gustavson's kernel, so a recoverable fault in
// it — an injected kernel error, or the governor refusing B's transient
// bitmap — costs one retry: Gustavson runs and, folding every entry in the
// same order, leaves the same result. A panic-kind fault models a faulty
// operator and is not retried: the operation fails and C keeps what it held.
func TestFaults_DenseProductFallsBackToGustavson(t *testing.T) {
	assertQuiescent(t)
	withMode(t, Blocking, func() {
		rng := rand.New(rand.NewSource(11))
		s := plusTimesF64(t)
		a := buildDenseMatrix(t, 16, 0.4, rng)
		b := buildDenseMatrix(t, 16, 0.6, rng)
		mxm := func(c *Matrix[float64]) error {
			return MxM(c, NoMask, NoAccum[float64](), s, a, b, nil)
		}
		// What one call did: dense products run, retries.
		type counts struct{ dense, retries int64 }
		snap := func() counts { return counts{fmtFastOps.Value(), execRetries.Value()} }
		since := func(c counts) counts {
			n := snap()
			return counts{n.dense - c.dense, n.retries - c.retries}
		}

		base := snap()
		wantC, _ := NewMatrix[float64](16, 16)
		if err := mxm(wantC); err != nil {
			t.Fatalf("reference MxM: %v", err)
		}
		if d := since(base); d != (counts{dense: 1}) {
			t.Fatalf("reference MxM ran %+v, want one dense product", d)
		}
		want := denseOf(t, wantC)

		withFaults(t, 1, faults.Rule{Site: "format.kernel.bitmap.mxm.fast", Kind: faults.KernelErr})
		base = snap()
		c, _ := NewMatrix[float64](16, 16)
		if err := mxm(c); err != nil {
			t.Fatalf("MxM under injection not recovered: %v", err)
		}
		if d := since(base); d != (counts{retries: 1}) {
			t.Fatalf("faulted dense product ran %+v, want Gustavson after one retry", d)
		}
		equalDense(t, denseOf(t, c), want, "Gustavson after a faulted dense product")
		faults.Disable()

		prev := faults.SetAllocBudget(256) // far below B's 16×16 bitmap
		t.Cleanup(func() { faults.SetAllocBudget(prev) })
		base = snap()
		c, _ = NewMatrix[float64](16, 16)
		if err := mxm(c); err != nil {
			t.Fatalf("MxM under the governor not recovered: %v", err)
		}
		if d := since(base); d != (counts{retries: 1}) {
			t.Fatalf("denied bitmap ran %+v, want Gustavson after one retry", d)
		}
		equalDense(t, denseOf(t, c), want, "Gustavson after a denied bitmap")
		faults.SetAllocBudget(prev)

		withFaults(t, 1, faults.Rule{Site: "format.kernel.bitmap.mxm.fast", Kind: faults.PanicFault})
		base = snap()
		c, _ = NewMatrix[float64](16, 16)
		if err := c.Build([]int{0, 5}, []int{3, 2}, []float64{7, 9}, NoAccum[float64]()); err != nil {
			t.Fatalf("Build: %v", err)
		}
		before := committedTuples(c)
		if err := mxm(c); InfoOf(err) != PanicInfo {
			t.Fatalf("Panic-kind fault surfaced as %v", err)
		}
		if d := since(base); d.retries != 0 {
			t.Fatalf("panic fault was retried: %+v", d)
		}
		equalDense(t, committedTuples(c), before, "rolled-back contents")
	})
}

// TestFaults_DotProductFallsBackToGustavson: the transpose-free dot kernel,
// C⟨L⟩ = L ⊕.⊗ Lᵀ over a full strict lower triangle, where DotMaskedWins
// selects it (a rule on its site firing proves that). A recoverable fault
// falls through to transpose + sparse.SpGEMM with the same answer; a
// panic-kind fault fails the operation and rolls C back untouched.
func TestFaults_DotProductFallsBackToGustavson(t *testing.T) {
	assertQuiescent(t)
	withMode(t, Blocking, func() {
		s := plusTimesF64(t)
		desc := Desc().Transpose1().ReplaceOutput()
		var is, js []int
		var vs []float64
		for i := 0; i < 12; i++ {
			for j := 0; j < i; j++ {
				is, js, vs = append(is, i), append(js, j), append(vs, float64(1+(i*7+j*3)%5))
			}
		}
		l, _ := NewMatrix[float64](12, 12)
		if err := l.Build(is, js, vs, NoAccum[float64]()); err != nil {
			t.Fatalf("Build: %v", err)
		}
		wantC, _ := NewMatrix[float64](12, 12)
		if err := MxM(wantC, l, NoAccum[float64](), s, l, l, desc); err != nil {
			t.Fatalf("reference MxM: %v", err)
		}
		want := denseOf(t, wantC)

		withFaults(t, 1, faults.Rule{Site: "sparse.kernel.spgemm.dot", Kind: faults.KernelErr})
		base := StatsSnapshot().KernelRetries
		c, _ := NewMatrix[float64](12, 12)
		if err := c.Build([]int{0, 5}, []int{3, 2}, []float64{7, 9}, NoAccum[float64]()); err != nil {
			t.Fatalf("Build: %v", err)
		}
		before := committedTuples(c)
		if err := MxM(c, l, NoAccum[float64](), s, l, l, desc); err != nil {
			t.Fatalf("MxM under injection not recovered: %v", err)
		}
		equalDense(t, denseOf(t, c), want, "dot-kernel fallback MxM")
		if st := StatsSnapshot(); st.KernelRetries != base+1 {
			t.Fatalf("dot-kernel retry not counted once: %d → %d", base, st.KernelRetries)
		}

		withFaults(t, 1, faults.Rule{Site: "sparse.kernel.spgemm.dot", Kind: faults.PanicFault})
		base = StatsSnapshot().KernelRetries
		c2, _ := NewMatrix[float64](12, 12)
		if err := c2.Build([]int{0, 5}, []int{3, 2}, []float64{7, 9}, NoAccum[float64]()); err != nil {
			t.Fatalf("Build: %v", err)
		}
		if err := MxM(c2, l, NoAccum[float64](), s, l, l, desc); InfoOf(err) != PanicInfo {
			t.Fatalf("Panic-kind fault surfaced as %v", err)
		}
		if st := StatsSnapshot(); st.KernelRetries != base {
			t.Fatalf("panic fault was retried: %+v", st)
		}
		equalDense(t, committedTuples(c2), before, "rolled-back contents")
	})
}

// TestFaults_PullFallsBackToPush: the pull the direction rule chooses for a
// dense VxM is the engine's own idea, so a recoverable fault in it — an
// injected kernel error, or the governor refusing the transpose it would
// have to build — must cost one retry and nothing else: the push kernel runs
// and, the two directions being bit-identical, leaves the same tuples. A
// panic-kind fault models a faulty operator and is not retried: the
// operation fails and the output keeps what it held.
func TestFaults_PullFallsBackToPush(t *testing.T) {
	assertQuiescent(t)
	withMode(t, Blocking, func() {
		rng := rand.New(rand.NewSource(29))
		s := plusTimesF64(t)
		a := buildDenseMatrix(t, 80, 0.5, rng) // about 3 200 edges
		u := buildVector(t, 80, 1, rng)        // every row: all of them
		vxm := func(w *Vector[float64]) error {
			return VxM(w, NoMaskV, NoAccum[float64](), s, u, a, nil)
		}
		// What one call did: pulls, pushes, retries, transpose builds.
		type counts struct{ pull, push, retries, builds int64 }
		snap := func() counts {
			return counts{mxvPull.Value(), mxvPush.Value(), execRetries.Value(), transposeBuilds.Value()}
		}
		since := func(c counts) counts {
			n := snap()
			return counts{n.pull - c.pull, n.push - c.push, n.retries - c.retries, n.builds - c.builds}
		}
		same := func(w *Vector[float64], want map[int]float64, label string) {
			t.Helper()
			got := vecTuples(t, w)
			if len(got) != len(want) {
				t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
			}
			for i, x := range want {
				if got[i] != x {
					t.Fatalf("%s: w[%d] got %v want %v", label, i, got[i], x)
				}
			}
		}

		// No faults: nothing cached and every edge in the frontier, so the
		// call builds Aᵀ and pulls.
		base := snap()
		wantV, _ := NewVector[float64](80)
		if err := vxm(wantV); err != nil {
			t.Fatalf("reference VxM: %v", err)
		}
		if d := since(base); d != (counts{pull: 1, builds: 1}) {
			t.Fatalf("reference VxM ran %+v, want one pull over a fresh transpose", d)
		}
		want := vecTuples(t, wantV)

		// An injected kernel error in the pull, Aᵀ now cached.
		withFaults(t, 1, faults.Rule{Site: "format.kernel.csr.pull", Kind: faults.KernelErr})
		base = snap()
		w, _ := NewVector[float64](80)
		if err := vxm(w); err != nil {
			t.Fatalf("VxM under injection not recovered: %v", err)
		}
		if d := since(base); d != (counts{push: 1, retries: 1}) {
			t.Fatalf("faulted pull ran %+v, want one push after one retry", d)
		}
		same(w, want, "push after a faulted pull")
		faults.Disable()

		// The governor denies the build: drop the cached transpose by
		// touching the matrix, then leave no room for a new one.
		a.setData(a.mdat())
		prev := faults.SetAllocBudget(256)
		t.Cleanup(func() { faults.SetAllocBudget(prev) })
		base = snap()
		w, _ = NewVector[float64](80)
		if err := vxm(w); err != nil {
			t.Fatalf("VxM under the governor not recovered: %v", err)
		}
		if d := since(base); d != (counts{push: 1, retries: 1}) {
			t.Fatalf("denied build ran %+v, want one push after one retry and no build", d)
		}
		same(w, want, "push after a denied build")
		faults.SetAllocBudget(prev)

		// A panic-kind fault is the operator's, not the kernel's.
		withFaults(t, 1, faults.Rule{Site: "format.kernel.csr.pull", Kind: faults.PanicFault})
		base = snap()
		w = buildVector(t, 80, 0.3, rng)
		before := w.vdat().Clone()
		if err := vxm(w); InfoOf(err) != PanicInfo {
			t.Fatalf("Panic-kind fault surfaced as %v", err)
		}
		if d := since(base); d.retries != 0 || d.push != 0 {
			t.Fatalf("panic fault was retried: %+v", d)
		}
		if after := w.vdat(); !reflect.DeepEqual(after.Idx, before.Idx) || !reflect.DeepEqual(after.Val, before.Val) {
			t.Fatalf("output not rolled back: %v, held %v", after.Idx, before.Idx)
		}
	})
}

// TestFaults_PanicStackNamesOperator is the satellite-2 check: the GrB_PANIC
// diagnostic carries a trimmed stack that names the faulty operator's frame
// instead of just "unknown internal error".
func TestFaults_PanicStackNamesOperator(t *testing.T) {
	assertQuiescent(t)
	withMode(t, Blocking, func() {
		boom := UnaryOp[float64, float64]{Name: "boom", F: func(float64) float64 { panic("operator bug") }}
		a, _ := NewMatrix[float64](2, 2)
		_ = a.Build([]int{0}, []int{1}, []float64{1}, NoAccum[float64]())
		c, _ := NewMatrix[float64](2, 2)
		err := ApplyM(c, NoMask, NoAccum[float64](), boom, a, nil)
		if InfoOf(err) != PanicInfo {
			t.Fatalf("ApplyM: %v", err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "operator bug") {
			t.Fatalf("panic value lost: %s", msg)
		}
		if !strings.Contains(msg, "fault_test.go") && !strings.Contains(msg, ".go:") {
			t.Fatalf("no stack frames in diagnostic: %s", msg)
		}
	})
}
