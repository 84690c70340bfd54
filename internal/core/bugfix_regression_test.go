package core

import (
	"runtime"
	"sync"
	"testing"

	"graphblas/internal/faults"
)

// Regression tests for three defects fixed together with the observability
// layer: scalar reduces swallowing kernel errors, Diag committing an empty
// matrix when the tuple build fails, and Resize writing dimension metadata
// without the object lock.

// seededMatrix builds a small fixed matrix whose element sum is known.
func seededMatrix(t *testing.T) (*Matrix[float64], float64) {
	t.Helper()
	m, err := NewMatrix[float64](4, 4)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := m.Build([]int{0, 1, 2, 3}, []int{1, 2, 3, 0}, []float64{1, 2, 3, 4}, NoAccum[float64]()); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m, 10
}

// TestScalarReduce_ExecutorFaultSurfaces: a fault drawn at the scalar
// reduce's executor site comes back as the method's error — zero result, the
// right Info code, an entry in the sequence error log — instead of being
// swallowed into a silently wrong scalar. Once the plan is exhausted the
// same call succeeds.
func TestScalarReduce_ExecutorFaultSurfaces(t *testing.T) {
	assertQuiescent(t)
	withMode(t, Blocking, func() {
		a, sum := seededMatrix(t)
		mon, err := NewMonoid(plusF64(), 0)
		if err != nil {
			t.Fatalf("NewMonoid: %v", err)
		}
		withFaults(t, 1, faults.Rule{Site: "ReduceMatrixToScalar", Kind: faults.OOM, Times: 1})
		got, err := ReduceMatrixToScalar(0, NoAccum[float64](), mon, a)
		if InfoOf(err) != OutOfMemory {
			t.Fatalf("faulted reduce: got (%v, %v) want OutOfMemory", got, err)
		}
		if got != 0 {
			t.Errorf("faulted reduce leaked a partial result: %v", got)
		}
		found := false
		for _, se := range SequenceErrors() {
			if se.Op == "ReduceMatrixToScalar" && InfoOf(se.Err) == OutOfMemory {
				found = true
			}
		}
		if !found {
			t.Errorf("error log has no ReduceMatrixToScalar entry: %+v", SequenceErrors())
		}
		if LastError() == "" {
			t.Errorf("GrB_error string not set")
		}
		got, err = ReduceMatrixToScalar(0, NoAccum[float64](), mon, a)
		if err != nil || got != sum {
			t.Fatalf("reduce after plan exhausted: got (%v, %v) want (%v, nil)", got, err, sum)
		}
	})
}

// TestScalarReduce_KernelFaultSurfaces: a fault raised inside the reduce
// kernels themselves — which panic, having value-only signatures — is
// recovered and surfaced as the method's error, for both the matrix and
// vector forms.
func TestScalarReduce_KernelFaultSurfaces(t *testing.T) {
	assertQuiescent(t)
	withMode(t, Blocking, func() {
		mon, err := NewMonoid(plusF64(), 0)
		if err != nil {
			t.Fatalf("NewMonoid: %v", err)
		}

		a, sum := seededMatrix(t)
		withFaults(t, 1, faults.Rule{Site: "sparse.kernel.reduce.all", Kind: faults.KernelErr, Times: 1})
		got, err := ReduceMatrixToScalar(0, NoAccum[float64](), mon, a)
		if InfoOf(err) != PanicInfo || got != 0 {
			t.Fatalf("matrix kernel fault: got (%v, %v) want (0, PanicInfo)", got, err)
		}
		if got, err = ReduceMatrixToScalar(0, NoAccum[float64](), mon, a); err != nil || got != sum {
			t.Fatalf("matrix reduce after fault: got (%v, %v) want (%v, nil)", got, err, sum)
		}

		u, uerr := NewVector[float64](4)
		if uerr != nil {
			t.Fatalf("NewVector: %v", uerr)
		}
		if err := u.Build([]int{0, 2}, []float64{5, 7}, NoAccum[float64]()); err != nil {
			t.Fatalf("Build: %v", err)
		}
		withFaults(t, 1, faults.Rule{Site: "sparse.kernel.reduce.vec", Kind: faults.KernelErr, Times: 1})
		vgot, err := ReduceVectorToScalar(0, NoAccum[float64](), mon, u)
		if InfoOf(err) != PanicInfo || vgot != 0 {
			t.Fatalf("vector kernel fault: got (%v, %v) want (0, PanicInfo)", vgot, err)
		}
		if vgot, err = ReduceVectorToScalar(0, NoAccum[float64](), mon, u); err != nil || vgot != 12 {
			t.Fatalf("vector reduce after fault: got (%v, %v) want (12, nil)", vgot, err)
		}
	})
}

// TestScalarReduce_PanicOperatorSurfaces: a panicking user monoid takes the
// recovery path rather than crashing the program, and the sequence error log
// records it.
func TestScalarReduce_PanicOperatorSurfaces(t *testing.T) {
	withMode(t, Blocking, func() {
		a, _ := seededMatrix(t)
		bad := BinaryOp[float64, float64, float64]{Name: "bad", F: func(x, y float64) float64 {
			panic("operator exploded")
		}}
		mon, err := NewMonoid(bad, 0)
		if err != nil {
			t.Fatalf("NewMonoid: %v", err)
		}
		got, err := ReduceMatrixToScalar(0, NoAccum[float64](), mon, a)
		if InfoOf(err) != PanicInfo || got != 0 {
			t.Fatalf("panicking monoid: got (%v, %v) want (0, PanicInfo)", got, err)
		}
	})
}

// TestDiag_FaultSurfaces: a fault injected at Diag's executor site fails the
// call instead of handing back an empty-but-valid diagonal matrix, and the
// failure is logged; a clean retry produces the right diagonal.
func TestDiag_FaultSurfaces(t *testing.T) {
	assertQuiescent(t)
	withMode(t, Blocking, func() {
		u, err := NewVector[float64](3)
		if err != nil {
			t.Fatalf("NewVector: %v", err)
		}
		if err := u.Build([]int{0, 1, 2}, []float64{1, 2, 3}, NoAccum[float64]()); err != nil {
			t.Fatalf("Build: %v", err)
		}
		withFaults(t, 1, faults.Rule{Site: "Diag", Kind: faults.OOM, Times: 1})
		if _, err := Diag(u, 0); InfoOf(err) != OutOfMemory {
			t.Fatalf("faulted Diag: got %v want OutOfMemory", err)
		}
		found := false
		for _, se := range SequenceErrors() {
			if se.Op == "Diag" {
				found = true
			}
		}
		if !found {
			t.Errorf("error log has no Diag entry: %+v", SequenceErrors())
		}
		m, err := Diag(u, 1)
		if err != nil {
			t.Fatalf("Diag after plan exhausted: %v", err)
		}
		got := denseOf(t, m)
		equalDense(t, got, dmat{{0, 1}: 1, {1, 2}: 2, {2, 3}: 3}, "diagonal")
	})
}

// TestResizeDuringFlushRace: one goroutine keeps deferring Clear operations
// and flushing them — so their closures read the dimensions on flush workers
// — while the test goroutine Resizes the same objects. Before the fix the
// eager metadata write was unlocked and the race detector flagged it; the
// test runs under every scheduler the engine has.
func TestResizeDuringFlushRace(t *testing.T) {
	cases := []struct {
		name  string
		mode  Mode
		sched Scheduler
	}{
		{"Blocking", Blocking, SchedSequential},
		{"NonBlockingSequential", NonBlocking, SchedSequential},
		{"NonBlockingDag", NonBlocking, SchedDag},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Oversubscribe a small machine so the flusher and the resizer
			// genuinely interleave; the race window is the unlocked metadata
			// write against a flush worker's dims read.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			withMode(t, tc.mode, func() {
				prevSched := SetScheduler(tc.sched)
				defer SetScheduler(prevSched)
				// Keep every deferred Clear alive: with elision on,
				// back-to-back Clears are dead stores and their closures — the
				// racing dims readers — would never run.
				prevElide := SetElision(false)
				defer SetElision(prevElide)
				m, err := NewMatrix[float64](32, 32)
				if err != nil {
					t.Fatalf("NewMatrix: %v", err)
				}
				v, err := NewVector[float64](32)
				if err != nil {
					t.Fatalf("NewVector: %v", err)
				}
				// In nonblocking mode the flusher clears the same objects the
				// main goroutine resizes: the Clear closures run on flush
				// workers and read the dimensions there — the engine-internal
				// race the fix closes. Blocking mode has no flush workers and
				// the API permits cross-goroutine sharing only for read-only
				// objects, so there the flusher drives its own objects and the
				// test exercises concurrent inline execution of the engine's
				// shared state instead.
				cm, cv := m, v
				if tc.mode == Blocking {
					cm, _ = NewMatrix[float64](32, 32)
					cv, _ = NewVector[float64](32)
				}
				const resizes = 2000
				var wg sync.WaitGroup
				wg.Add(1)
				done := make(chan struct{})
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						for i := 0; i < 32; i++ {
							_ = cm.Clear()
							_ = cv.Clear()
						}
						_ = Wait()
					}
				}()
				for i := 0; i < resizes; i++ {
					n := 16 + i%17
					if err := m.Resize(n, n); err != nil {
						t.Errorf("Matrix.Resize: %v", err)
					}
					if err := v.Resize(n); err != nil {
						t.Errorf("Vector.Resize: %v", err)
					}
				}
				close(done)
				wg.Wait()
				if err := Wait(); err != nil {
					t.Fatalf("final Wait: %v", err)
				}
				// Metadata must reflect the last Resize on this goroutine.
				nr, _ := m.NRows()
				nc, _ := m.NCols()
				sz, _ := v.Size()
				want := 16 + (resizes-1)%17
				if nr != want || nc != want || sz != want {
					t.Errorf("final dims: matrix %dx%d, vector %d, want %d", nr, nc, sz, want)
				}
			})
		})
	}
}
