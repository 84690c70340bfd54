package core

import (
	stdctx "context"
	"testing"
)

// oneF64 is the presence clamp used by the instance tests.
func oneF64() UnaryOp[float64, float64] {
	return UnaryOp[float64, float64]{Name: "one", F: func(float64) float64 { return 1 }}
}

// The engine-instance contract behind horizontal sharding: instances are
// fully isolated execution contexts (own queue, scheduler, flush lock, error
// log), cross-instance operand mixing is an InvalidValue, and cancellation
// scoped to one instance never touches another's pending work.

// TestInstanceRequiresActiveContext: instances live inside the program-wide
// lifecycle.
func TestInstanceRequiresActiveContext(t *testing.T) {
	ResetForTesting()
	if _, err := NewInstance(NonBlocking); InfoOf(err) != UninitializedContext {
		t.Fatalf("NewInstance before Init: %v, want UninitializedContext", err)
	}
	withMode(t, NonBlocking, func() {
		if _, err := NewInstance(Mode(9)); InfoOf(err) != InvalidValue {
			t.Fatalf("NewInstance with bad mode: %v, want InvalidValue", err)
		}
		if _, err := NewMatrixIn[float64](nil, 2, 2); InfoOf(err) != UninitializedObject {
			t.Fatalf("NewMatrixIn(nil): %v, want UninitializedObject", err)
		}
		if _, err := NewVectorIn[float64](nil, 2); InfoOf(err) != UninitializedObject {
			t.Fatalf("NewVectorIn(nil): %v, want UninitializedObject", err)
		}
	})
}

// TestInstanceIsolation: an execution error in one instance lands in that
// instance's sequence error log only; the sibling instance and the global
// context flush clean.
func TestInstanceIsolation(t *testing.T) {
	withMode(t, NonBlocking, func() {
		a, err := NewInstance(NonBlocking)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewInstance(NonBlocking)
		if err != nil {
			t.Fatal(err)
		}

		// Instance a: a user-operator panic fails its op.
		ma, err := NewMatrixIn[float64](a, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := ma.SetElement(1, 0, 0); err != nil {
			t.Fatal(err)
		}
		boom := UnaryOp[float64, float64]{Name: "boom", F: func(float64) float64 { panic("boom") }}
		if err := ApplyM(ma, NoMask, NoAccum[float64](), boom, ma, nil); err != nil {
			t.Fatal(err)
		}

		// Instance b and the global context: clean work.
		mb, err := NewMatrixIn[float64](b, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := mb.SetElement(2, 1, 1); err != nil {
			t.Fatal(err)
		}
		mg, err := NewMatrix[float64](4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := mg.SetElement(3, 2, 2); err != nil {
			t.Fatal(err)
		}

		if err := a.Wait(); InfoOf(err) != PanicInfo {
			t.Fatalf("instance a flush: %v, want PanicInfo", err)
		}
		if err := b.Wait(); err != nil {
			t.Fatalf("instance b flush dirtied by a's failure: %v", err)
		}
		if err := Wait(); err != nil {
			t.Fatalf("global flush dirtied by instance failure: %v", err)
		}
		if log := a.SequenceErrors(); len(log) == 0 {
			t.Fatal("instance a has no sequence errors after a failed op")
		}
		if log := b.SequenceErrors(); len(log) != 0 {
			t.Fatalf("instance b's error log polluted: %v", log)
		}
	})
}

// TestInstanceCrossMixingRejected: one operation may not mix operands bound
// to different instances, or an instance and the global context.
func TestInstanceCrossMixingRejected(t *testing.T) {
	withMode(t, NonBlocking, func() {
		a, _ := NewInstance(NonBlocking)
		b, _ := NewInstance(NonBlocking)
		ma, _ := NewMatrixIn[float64](a, 4, 4)
		mb, _ := NewMatrixIn[float64](b, 4, 4)
		mg, _ := NewMatrix[float64](4, 4)
		out, _ := NewMatrixIn[float64](a, 4, 4)

		if err := EWiseAddM(out, NoMask, NoAccum[float64](), plusF64(), ma, mb, nil); InfoOf(err) != InvalidValue {
			t.Fatalf("cross-instance operands: %v, want InvalidValue", err)
		}
		if err := EWiseAddM(out, NoMask, NoAccum[float64](), plusF64(), ma, mg, nil); InfoOf(err) != InvalidValue {
			t.Fatalf("instance+global operands: %v, want InvalidValue", err)
		}
		if err := EWiseAddM(mg, NoMask, NoAccum[float64](), plusF64(), ma, ma, nil); InfoOf(err) != InvalidValue {
			t.Fatalf("global output with instance inputs: %v, want InvalidValue", err)
		}
		// Same-instance operands stay legal.
		if err := EWiseAddM(out, NoMask, NoAccum[float64](), plusF64(), ma, ma, nil); err != nil {
			t.Fatalf("same-instance operation rejected: %v", err)
		}
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInstanceScopedCancellation: an already-expired deadline abandons one
// instance's pending operations (Canceled) while a sibling instance's queue
// flushes untouched — the shrunken blast radius sharded serving relies on.
func TestInstanceScopedCancellation(t *testing.T) {
	assertQuiescent(t)
	withMode(t, NonBlocking, func() {
		a, _ := NewInstance(NonBlocking)
		b, _ := NewInstance(NonBlocking)
		ma, _ := NewMatrixIn[float64](a, 8, 8)
		mb, _ := NewMatrixIn[float64](b, 8, 8)
		for i := 0; i < 8; i++ {
			if err := ma.SetElement(1, i, i); err != nil {
				t.Fatal(err)
			}
			if err := mb.SetElement(1, i, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := ApplyM(ma, NoMask, NoAccum[float64](), oneF64(), ma, nil); err != nil {
			t.Fatal(err)
		}
		if err := ApplyM(mb, NoMask, NoAccum[float64](), oneF64(), mb, nil); err != nil {
			t.Fatal(err)
		}

		ctx, cancel := stdctx.WithCancel(stdctx.Background())
		cancel()
		if err := a.WaitContext(ctx); InfoOf(err) != Canceled {
			t.Fatalf("canceled instance flush: %v, want Canceled", err)
		}
		if err := b.Wait(); err != nil {
			t.Fatalf("sibling instance caught the cancellation: %v", err)
		}
		nv, err := mb.NVals()
		if err != nil || nv != 8 {
			t.Fatalf("sibling instance state: nvals=%d err=%v", nv, err)
		}
		// The abandoned instance recovers by revalidation.
		if err := ma.Revalidate(); err != nil {
			t.Fatalf("Revalidate after abandoned flush: %v", err)
		}
	})
}

// TestInstanceSchedulerInheritance: instances snapshot the global scheduler
// at creation, and work on one flushes under it.
func TestInstanceSchedulerInheritance(t *testing.T) {
	withMode(t, NonBlocking, func() {
		prev := SetScheduler(SchedSequential)
		defer SetScheduler(prev)
		in, err := NewInstance(NonBlocking)
		if err != nil {
			t.Fatal(err)
		}
		if got := in.c.sched; got != SchedSequential {
			t.Fatalf("inherited scheduler = %v, want SchedSequential", got)
		}
		m, _ := NewMatrixIn[float64](in, 4, 4)
		if err := m.SetElement(1, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := ApplyM(m, NoMask, NoAccum[float64](), oneF64(), m, nil); err != nil {
			t.Fatal(err)
		}
		if err := in.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInstanceDerivedObjectsInherit: Dup and Diag results stay bound to
// their source's instance, so derived dataflow keeps flushing there.
func TestInstanceDerivedObjectsInherit(t *testing.T) {
	withMode(t, NonBlocking, func() {
		in, _ := NewInstance(NonBlocking)
		m, _ := NewMatrixIn[float64](in, 4, 4)
		if err := m.SetElement(5, 1, 2); err != nil {
			t.Fatal(err)
		}
		d, err := m.Dup()
		if err != nil {
			t.Fatal(err)
		}
		// A same-instance op with the dup must be legal; a global-output op
		// must not.
		out, _ := NewMatrixIn[float64](in, 4, 4)
		if err := EWiseAddM(out, NoMask, NoAccum[float64](), plusF64(), m, d, nil); err != nil {
			t.Fatalf("dup lost its instance binding: %v", err)
		}
		g, _ := NewMatrix[float64](4, 4)
		if err := EWiseAddM(g, NoMask, NoAccum[float64](), plusF64(), m, d, nil); InfoOf(err) != InvalidValue {
			t.Fatalf("dup mixed into global context: %v, want InvalidValue", err)
		}
		if err := in.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}
