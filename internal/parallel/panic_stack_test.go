package parallel

import (
	"strings"
	"testing"
)

// TestPanicCarriesWorkerStack: a panic escaping a worker goroutine arrives at
// the caller wrapped in *Panic with the worker's stack, captured at the
// moment of the panic — the frames that name the faulty function.
func TestPanicCarriesWorkerStack(t *testing.T) {
	SetMaxWorkersForTest(t, 4)
	defer func() {
		r := recover()
		p, ok := r.(*Panic)
		if !ok {
			t.Fatalf("recovered %T, want *Panic", r)
		}
		if p.Val != "worker failure" {
			t.Fatalf("wrapped value %v", p.Val)
		}
		if !strings.Contains(string(p.Stack), "panic_stack_test.go") {
			t.Fatalf("stack does not name the panicking frame:\n%s", p.Stack)
		}
	}()
	For(1000, SplitWork, func(lo, hi int) {
		if lo <= 500 && 500 < hi {
			panic("worker failure")
		}
	})
	t.Fatal("panic not propagated")
}

// TestPanicNotDoubleWrapped: nested parallel loops pass an existing *Panic
// through unchanged, preserving the innermost stack.
func TestPanicNotDoubleWrapped(t *testing.T) {
	SetMaxWorkersForTest(t, 4)
	defer func() {
		p, ok := recover().(*Panic)
		if !ok {
			t.Fatal("not a *Panic")
		}
		if _, nested := p.Val.(*Panic); nested {
			t.Fatal("panic wrapped twice")
		}
	}()
	For(100, SplitWork, func(lo, hi int) {
		For(100, SplitWork, func(lo2, hi2 int) {
			if lo2 == 0 && lo <= 50 && 50 < hi {
				panic("inner")
			}
		})
	})
}
