package core

import (
	stdctx "context"
	"runtime"
	"testing"
	"time"
)

// TestWaitContext_PreCanceled: a flush entered with an already-canceled
// context abandons every deferred operation. Each output is marked invalid
// with a Canceled error, the sequence log records them in program order, and
// a later full overwrite rehabilitates the objects — identical recovery
// semantics to a kernel failure.
func TestWaitContext_PreCanceled(t *testing.T) {
	assertQuiescent(t)
	for _, sched := range []struct {
		name string
		s    Scheduler
	}{{"Sequential", SchedSequential}, {"Dag", SchedDag}} {
		t.Run(sched.name, func(t *testing.T) {
			withMode(t, NonBlocking, func() {
				prev := SetScheduler(sched.s)
				defer SetScheduler(prev)
				s := plusTimesF64(t)
				a, _ := NewMatrix[float64](2, 2)
				_ = a.Build([]int{0, 1}, []int{1, 0}, []float64{2, 3}, NoAccum[float64]())
				c1, _ := NewMatrix[float64](2, 2)
				c2, _ := NewMatrix[float64](2, 2)
				if err := MxM(c1, NoMask, NoAccum[float64](), s, a, a, nil); err != nil {
					t.Fatalf("MxM c1: %v", err)
				}
				if err := MxM(c2, NoMask, NoAccum[float64](), s, a, a, nil); err != nil {
					t.Fatalf("MxM c2: %v", err)
				}
				ctx, cancel := stdctx.WithCancel(stdctx.Background())
				cancel()
				err := WaitContext(ctx)
				if InfoOf(err) != Canceled {
					t.Fatalf("WaitContext on canceled ctx: got %v want Canceled", err)
				}
				// Both ops were abandoned; both entries are in the log.
				log := SequenceErrors()
				if len(log) != 2 {
					t.Fatalf("SequenceErrors: got %d entries want 2: %v", len(log), log)
				}
				for _, e := range log {
					if InfoOf(e.Err) != Canceled {
						t.Fatalf("log entry not Canceled: %v", e.Err)
					}
				}
				if _, err := c1.NVals(); InfoOf(err) != InvalidObject {
					t.Fatalf("canceled output readable: %v", err)
				}
				// Full overwrite rehabilitates, and a plain Wait still works.
				if err := Transpose(c1, NoMask, NoAccum[float64](), a, nil); err != nil {
					t.Fatalf("Transpose: %v", err)
				}
				if err := Transpose(c2, NoMask, NoAccum[float64](), a, nil); err != nil {
					t.Fatalf("Transpose: %v", err)
				}
				if err := Wait(); err != nil {
					t.Fatalf("Wait after rehabilitation: %v", err)
				}
				if nv, err := c1.NVals(); err != nil || nv != 2 {
					t.Fatalf("rehabilitated c1: nv=%d err=%v", nv, err)
				}
			})
		})
	}
}

// TestWaitContext_DeadlineMidFlush: a deadline expiring while an operation's
// kernel is running lets that kernel finish (cancellation stops dispatch, it
// never interrupts execution) and abandons the dependent operation behind it.
func TestWaitContext_DeadlineMidFlush(t *testing.T) {
	assertQuiescent(t)
	for _, sched := range []struct {
		name string
		s    Scheduler
	}{{"Sequential", SchedSequential}, {"Dag", SchedDag}} {
		t.Run(sched.name, func(t *testing.T) {
			withMode(t, NonBlocking, func() {
				prev := SetScheduler(sched.s)
				defer SetScheduler(prev)
				s := plusTimesF64(t)
				slow := UnaryOp[float64, float64]{Name: "slow", F: func(x float64) float64 {
					time.Sleep(5 * time.Millisecond)
					return x
				}}
				a, _ := NewMatrix[float64](2, 2)
				_ = a.Build([]int{0, 1}, []int{1, 0}, []float64{2, 3}, NoAccum[float64]())
				c1, _ := NewMatrix[float64](2, 2)
				c2, _ := NewMatrix[float64](2, 2)
				if err := ApplyM(c1, NoMask, NoAccum[float64](), slow, a, nil); err != nil {
					t.Fatalf("ApplyM: %v", err)
				}
				// c2 reads c1: the RAW edge keeps it undispatched until the
				// slow kernel — and with it the deadline — has passed.
				if err := MxM(c2, NoMask, NoAccum[float64](), s, c1, a, nil); err != nil {
					t.Fatalf("MxM: %v", err)
				}
				ctx, cancel := stdctx.WithTimeout(stdctx.Background(), time.Millisecond)
				defer cancel()
				err := WaitContext(ctx)
				if InfoOf(err) != Canceled {
					t.Fatalf("WaitContext past deadline: got %v want Canceled", err)
				}
				// The op that was already running committed its result.
				if nv, err := c1.NVals(); err != nil || nv != 2 {
					t.Fatalf("completed op not committed: nv=%d err=%v", nv, err)
				}
				// The dependent behind the deadline was abandoned.
				if _, err := c2.NVals(); InfoOf(err) != InvalidObject {
					t.Fatalf("abandoned dependent readable: %v", err)
				}
			})
		})
	}
}

// TestWaitContext_NilAndUnexpired: WaitContext with a nil context, or one
// whose deadline never fires, is observably identical to Wait.
func TestWaitContext_NilAndUnexpired(t *testing.T) {
	assertQuiescent(t)
	withMode(t, NonBlocking, func() {
		s := plusTimesF64(t)
		a, _ := NewMatrix[float64](2, 2)
		_ = a.Build([]int{0, 1}, []int{1, 0}, []float64{2, 3}, NoAccum[float64]())
		c, _ := NewMatrix[float64](2, 2)
		if err := MxM(c, NoMask, NoAccum[float64](), s, a, a, nil); err != nil {
			t.Fatalf("MxM: %v", err)
		}
		if err := WaitContext(nil); err != nil {
			t.Fatalf("WaitContext(nil): %v", err)
		}
		want := dmat{{0, 0}: 6, {1, 1}: 6}
		equalDense(t, denseOf(t, c), want, "nil ctx")

		d, _ := NewMatrix[float64](2, 2)
		if err := MxM(d, NoMask, NoAccum[float64](), s, a, a, nil); err != nil {
			t.Fatalf("MxM: %v", err)
		}
		ctx, cancel := stdctx.WithTimeout(stdctx.Background(), time.Minute)
		defer cancel()
		if err := WaitContext(ctx); err != nil {
			t.Fatalf("WaitContext(live): %v", err)
		}
		equalDense(t, denseOf(t, d), want, "live ctx")
	})
}

// TestWaitContext_DagStopsDispatchUnderWidth: with real parallelism, a
// canceled context must drain a wide DAG flush without executing undispatched
// nodes and without deadlocking the worker pool.
func TestWaitContext_DagStopsDispatchUnderWidth(t *testing.T) {
	assertQuiescent(t)
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2 for a DAG flush")
	}
	withMode(t, NonBlocking, func() {
		prev := SetScheduler(SchedDag)
		defer SetScheduler(prev)
		s := plusTimesF64(t)
		a, _ := NewMatrix[float64](4, 4)
		_ = a.Build([]int{0, 1, 2, 3}, []int{1, 2, 3, 0}, []float64{1, 1, 1, 1}, NoAccum[float64]())
		outs := make([]*Matrix[float64], 16)
		for i := range outs {
			outs[i], _ = NewMatrix[float64](4, 4)
			if err := MxM(outs[i], NoMask, NoAccum[float64](), s, a, a, nil); err != nil {
				t.Fatalf("MxM %d: %v", i, err)
			}
		}
		ctx, cancel := stdctx.WithCancel(stdctx.Background())
		cancel()
		done := make(chan error, 1)
		go func() { done <- WaitContext(ctx) }()
		select {
		case err := <-done:
			if InfoOf(err) != Canceled {
				t.Fatalf("wide canceled flush: got %v want Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("canceled DAG flush did not drain")
		}
	})
}

// TestRevalidate_AcceptsRolledBackContent: Revalidate is the alternative to
// full-overwrite rehabilitation for callers whose mutations are idempotent.
// After an abandoned flush the object still holds its prior committed
// content; Revalidate clears the invalid mark, the caller re-issues the
// dropped mutation, and reads resume with no intervening overwrite.
func TestRevalidate_AcceptsRolledBackContent(t *testing.T) {
	assertQuiescent(t)
	withMode(t, NonBlocking, func() {
		s := plusTimesF64(t)
		a, _ := NewMatrix[float64](2, 2)
		_ = a.Build([]int{0, 1}, []int{1, 0}, []float64{2, 3}, NoAccum[float64]())
		c, _ := NewMatrix[float64](2, 2)
		if err := MxM(c, NoMask, NoAccum[float64](), s, a, a, nil); err != nil {
			t.Fatalf("MxM warm: %v", err)
		}
		if err := Wait(); err != nil {
			t.Fatalf("Wait warm: %v", err)
		}
		want := denseOf(t, c)

		// Abandon a second MxM into c mid-queue: c goes invalid, but its
		// committed content is untouched (the op never ran).
		if err := MxM(c, NoMask, NoAccum[float64](), s, a, c, nil); err != nil {
			t.Fatalf("MxM enqueue: %v", err)
		}
		ctx, cancel := stdctx.WithCancel(stdctx.Background())
		cancel()
		if err := WaitContext(ctx); InfoOf(err) != Canceled {
			t.Fatalf("WaitContext: got %v want Canceled", err)
		}
		if _, err := c.NVals(); InfoOf(err) != InvalidObject {
			t.Fatalf("abandoned output readable: %v", err)
		}

		if err := c.Revalidate(); err != nil {
			t.Fatalf("Revalidate: %v", err)
		}
		got := denseOf(t, c)
		if len(got) != len(want) {
			t.Fatalf("revalidated content diverged: got %v want %v", got, want)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("revalidated content diverged at %v: got %v want %v", k, got[k], v)
			}
		}
		// The object is a first-class citizen again: merge-mode ops accept it.
		if err := MxM(c, NoMask, NoAccum[float64](), s, a, c, nil); err != nil {
			t.Fatalf("MxM after revalidate: %v", err)
		}
		if err := Wait(); err != nil {
			t.Fatalf("Wait after revalidate: %v", err)
		}
	})
}
