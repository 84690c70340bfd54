package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"graphblas/internal/faults"
)

// Regression tests for defects surfaced by the grblint static-analysis
// suite: a deferred MxM closure reading C's dimensions bare on a flush
// worker (lockedmeta), and two kernels sharing one fault-injection site
// literal (faultsite).

// TestMxMDenseProductDimsRace: the dense ⟨+,×⟩ MxM runs inside the
// deferred closure, on a flush worker, and commits its product into C there.
// One goroutine keeps flushing enqueued MxMs while the test goroutine
// Resizes C (to its own size, so validation keeps passing); a closure that
// read c.nr/c.nc bare against Resize's eager metadata write — as the bitmap
// adoption this path replaced once did — is flagged by the race detector.
// Mirrors TestResizeDuringFlushRace.
func TestMxMDenseProductDimsRace(t *testing.T) {
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
				// their closures — the racing readers — would never run.
				prevElide := SetElision(false)
				defer SetElision(prevElide)
				rng := rand.New(rand.NewSource(3))
				s := plusTimesF64(t)
				const n = 16
				a := buildDenseMatrix(t, n, 0.4, rng)
				b := buildDenseMatrix(t, n, 0.6, rng)
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
				before := fmtFastOps.Value()
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
				// (and would race with an unlocked closure read), while MxM's
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
				if fmtFastOps.Value() == before {
					t.Fatal("no MxM took the dense product")
				}
				equalDense(t, denseOf(t, c), want, "MxM under concurrent flush")
			})
		})
	}
}

// TestFallbackSitesDistinct: the two kernels the engine picks over a
// reference one on the multiply paths — the pull of a scatter product and
// the dense ⟨+,×⟩ MxM — draw different injection sites
// ("format.kernel.csr.pull" and "format.kernel.bitmap.mxm.fast"), so a plan
// can fail one without touching the other. A shared literal would make
// every plan hit both.
func TestFallbackSitesDistinct(t *testing.T) {
	assertQuiescent(t)
	withMode(t, Blocking, func() {
		rng := rand.New(rand.NewSource(5))
		s := plusTimesF64(t)
		const n = 80
		a := buildDenseMatrix(t, n, 0.5, rng) // about 3 200 edges: a dense frontier pulls
		u := buildVector(t, n, 1, rng)

		// vxm and mxm run one product each and report the retries it cost;
		// every result must match the fault-free reference.
		vxm := func(want map[int]float64) int64 {
			t.Helper()
			base := execRetries.Value()
			w, _ := NewVector[float64](n)
			if err := VxM(w, NoMaskV, NoAccum[float64](), s, u, a, nil); err != nil {
				t.Fatalf("VxM: %v", err)
			}
			got := vecTuples(t, w)
			for i, x := range want {
				if got[i] != x {
					t.Fatalf("w[%d] got %v want %v", i, got[i], x)
				}
			}
			return execRetries.Value() - base
		}
		mxm := func(want dmat) int64 {
			t.Helper()
			base := execRetries.Value()
			c, _ := NewMatrix[float64](n, n)
			if err := MxM(c, NoMask, NoAccum[float64](), s, a, a, nil); err != nil {
				t.Fatalf("MxM: %v", err)
			}
			equalDense(t, denseOf(t, c), want, "MxM")
			return execRetries.Value() - base
		}
		wantW := func() map[int]float64 {
			w, _ := NewVector[float64](n)
			if err := VxM(w, NoMaskV, NoAccum[float64](), s, u, a, nil); err != nil {
				t.Fatalf("reference VxM: %v", err)
			}
			return vecTuples(t, w)
		}()
		wantC := func() dmat {
			c, _ := NewMatrix[float64](n, n)
			if err := MxM(c, NoMask, NoAccum[float64](), s, a, a, nil); err != nil {
				t.Fatalf("reference MxM: %v", err)
			}
			return denseOf(t, c)
		}()

		// A plan pinned to the pull site fails only the pull.
		withFaults(t, 1, faults.Rule{Site: "format.kernel.csr.pull", Kind: faults.KernelErr})
		if d := vxm(wantW); d != 1 {
			t.Errorf("pull-site plan: pull retried %d times, want 1", d)
		}
		if d := mxm(wantC); d != 0 {
			t.Errorf("pull-site plan leaked into the dense product: %d retries", d)
		}

		// A plan pinned to the dense product's site fails only that kernel.
		withFaults(t, 1, faults.Rule{Site: "format.kernel.bitmap.mxm.fast", Kind: faults.KernelErr})
		if d := mxm(wantC); d != 1 {
			t.Errorf("dense-site plan: dense product retried %d times, want 1", d)
		}
		if d := vxm(wantW); d != 0 {
			t.Errorf("dense-site plan leaked into the pull: %d retries", d)
		}
		faults.Disable()
	})
}
