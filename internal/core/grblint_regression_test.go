package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"graphblas/internal/faults"
	"graphblas/internal/format"
)

// Regression tests for the defects surfaced by the grblint static-analysis
// suite: the MxM bitmap-adoption closure reading C's dimensions bare on a
// flush worker (lockedmeta), and the two hypersparse MxV kernels sharing one
// fault-injection site literal (faultsite).

// TestMxMBitmapAdoptionDimsRace: the no-mask no-accum ⟨+,×⟩ MxM fast path
// adopts its bitmap result in whichever layout format.Choose picks from C's
// dimensions — inside the deferred closure, on a flush worker. One goroutine
// keeps flushing enqueued MxMs while the test goroutine Resizes C (to its
// own size, so validation keeps passing); before the fix the closure read
// c.nr/c.nc bare against Resize's eager metadata write and the race
// detector flagged it. Mirrors TestResizeDuringFlushRace.
func TestMxMBitmapAdoptionDimsRace(t *testing.T) {
	cases := []struct {
		name  string
		sched Scheduler
	}{
		{"Sequential", SchedSequential},
		{"Dag", SchedDag},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			withMode(t, NonBlocking, func() {
				prevSched := SetScheduler(tc.sched)
				defer SetScheduler(prevSched)
				// Keep every deferred MxM alive: with elision on,
				// back-to-back full-overwrite products are dead stores and
				// their closures — the racing dims readers — would never run.
				prevElide := SetElision(false)
				defer SetElision(prevElide)
				rng := rand.New(rand.NewSource(3))
				s := plusTimesF64(t)
				const n = 16
				a := buildDenseMatrix(t, n, 0.4, rng)
				b := buildDenseMatrix(t, n, 0.6, rng)
				if err := b.SetFormat(format.BitmapKind); err != nil {
					t.Fatalf("SetFormat: %v", err)
				}
				c, err := NewMatrix[float64](n, n)
				if err != nil {
					t.Fatalf("NewMatrix: %v", err)
				}
				want := func() dmat {
					ref, _ := NewMatrix[float64](n, n)
					if err := MxM(ref, NoMask, NoAccum[float64](), s, a, b, nil); err != nil {
						t.Fatalf("reference MxM: %v", err)
					}
					if err := Wait(); err != nil {
						t.Fatalf("reference Wait: %v", err)
					}
					return denseOf(t, ref)
				}()
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
						_ = Wait()
					}
				}()
				// Same-size Resize: the eager metadata write still happens
				// (and still races with an unlocked closure read), while MxM's
				// dimension validation keeps passing.
				for i := 0; i < 400; i++ {
					if err := MxM(c, NoMask, NoAccum[float64](), s, a, b, nil); err != nil {
						t.Errorf("MxM: %v", err)
					}
					if err := c.Resize(n, n); err != nil {
						t.Errorf("Resize: %v", err)
					}
				}
				close(done)
				wg.Wait()
				if err := Wait(); err != nil {
					t.Fatalf("final Wait: %v", err)
				}
				equalDense(t, denseOf(t, c), want, "MxM under concurrent flush")
			})
		})
	}
}

// TestHyperMxVFaultSitesDistinct: the dot and push hypersparse MxV kernels
// draw different injection sites ("format.kernel.hyper.mxv" and
// "format.kernel.hyper.mxv.push"), so a plan can fail one without touching
// the other. Before the fix both kernels drew one literal and every plan hit
// both.
func TestHyperMxVFaultSitesDistinct(t *testing.T) {
	assertQuiescent(t)
	withMode(t, Blocking, func() {
		rng := rand.New(rand.NewSource(5))
		s := plusTimesF64(t)
		const n = 24
		a := buildDenseMatrix(t, n, 0.3, rng)
		u := buildVector(t, n, 0.6, rng)
		if err := a.SetFormat(format.HyperKind); err != nil {
			t.Fatalf("SetFormat: %v", err)
		}
		tran := Desc().Transpose0()

		// Fault-free references for both orientations.
		wantDotV, _ := NewVector[float64](n)
		if err := MxV(wantDotV, NoMaskV, NoAccum[float64](), s, a, u, nil); err != nil {
			t.Fatalf("reference dot MxV: %v", err)
		}
		wantDot := vecTuples(t, wantDotV)
		wantPushV, _ := NewVector[float64](n)
		if err := MxV(wantPushV, NoMaskV, NoAccum[float64](), s, a, u, tran); err != nil {
			t.Fatalf("reference push MxV: %v", err)
		}
		wantPush := vecTuples(t, wantPushV)

		run := func(desc *Descriptor, want map[int]float64) int64 {
			t.Helper()
			base := StatsSnapshot().KernelRetries
			w, _ := NewVector[float64](n)
			if err := MxV(w, NoMaskV, NoAccum[float64](), s, a, u, desc); err != nil {
				t.Fatalf("MxV: %v", err)
			}
			got := vecTuples(t, w)
			if len(got) != len(want) {
				t.Fatalf("nvals got %d want %d", len(got), len(want))
			}
			for i, x := range want {
				if got[i] != x {
					t.Fatalf("w[%d] got %v want %v", i, got[i], x)
				}
			}
			return StatsSnapshot().KernelRetries - base
		}

		// A plan pinned to the dot site fails only the dot kernel.
		withFaults(t, 1, faults.Rule{Site: "format.kernel.hyper.mxv", Kind: faults.KernelErr})
		if d := run(nil, wantDot); d == 0 {
			t.Errorf("dot-site plan: dot kernel not retried")
		}
		if d := run(tran, wantPush); d != 0 {
			t.Errorf("dot-site plan leaked into the push kernel: %d retries", d)
		}

		// A plan pinned to the push site fails only the push kernel.
		withFaults(t, 1, faults.Rule{Site: "format.kernel.hyper.mxv.push", Kind: faults.KernelErr})
		if d := run(tran, wantPush); d == 0 {
			t.Errorf("push-site plan: push kernel not retried")
		}
		if d := run(nil, wantDot); d != 0 {
			t.Errorf("push-site plan leaked into the dot kernel: %d retries", d)
		}
		faults.Disable()
	})
}
