package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForWeightedSmallFallsBackInline(t *testing.T) {
	// Below the weight threshold everything runs in one call.
	cum := []int{0, 1, 2, 3}
	calls := 0
	ForWeighted(3, cum, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 3 {
			t.Fatalf("unexpected range %d %d", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls %d", calls)
	}
}

func TestForWeightedPanicPropagation(t *testing.T) {
	n := SplitWork
	cum := make([]int, n+1)
	for i := 0; i < n; i++ {
		cum[i+1] = cum[i] + 1
	}
	defer func() {
		if recover() == nil {
			t.Fatal("panic not propagated")
		}
	}()
	ForWeighted(n, cum, func(lo, hi int) {
		if lo <= n/2 && n/2 < hi {
			panic("boom")
		}
	})
}

// TestForRangesPanicWaitsForEveryRange: ForRanges runs range 0 on the
// calling goroutine, and a panic there — or in any other range — reaches the
// caller only once every range has run, so no worker still writes into a
// kernel's buffers when the caller unwinds.
func TestForRangesPanicWaitsForEveryRange(t *testing.T) {
	for _, bad := range []int{0, 2} {
		var done atomic.Int64
		func() {
			defer func() {
				if _, ok := recover().(*Panic); !ok {
					t.Fatalf("range %d's panic did not reach the caller as a *Panic", bad)
				}
			}()
			ForRanges([]int{0, 10, 20, 30}, func(k, lo, hi int) {
				if k == bad {
					panic("boom")
				}
				done.Add(int64(hi - lo))
			})
		}()
		if got := done.Load(); got != 20 {
			t.Fatalf("range %d panicked: the other ranges covered %d items before the caller saw it, want 20", bad, got)
		}
	}
}
