package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	SetMaxWorkersForTest(t, 4)
	f := func(n16 uint16, work8 uint8) bool {
		n := int(n16 % 5000)
		work := int(work8) << 10 // from no work to twice SplitWork
		hits := make([]int32, n)
		For(n, work, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for _, h := range hits {
			if h != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForEmptyAndSingle(t *testing.T) {
	called := false
	For(0, SplitWork, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for n=0")
	}
	var total int64
	For(1, SplitWork, func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) })
	if total != 1 {
		t.Fatalf("total %d", total)
	}
}

func TestForWeightedCoversRange(t *testing.T) {
	n := 1000
	cum := make([]int, n+1)
	for i := 0; i < n; i++ {
		w := 1
		if i == 0 {
			w = 100000 // heavily skewed first row
		}
		cum[i+1] = cum[i] + w
	}
	hits := make([]int32, n)
	ForWeighted(n, cum, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

// TestSplitFloor: a loop splits across workers only from SplitWork steps
// up, whatever its item count, and the range it runs on the caller is its
// first; a floor lowered for a test applies until the test ends.
func TestSplitFloor(t *testing.T) {
	SetMaxWorkersForTest(t, 4)
	ranges := func(n, work int) (got [][2]int) {
		var mu sync.Mutex
		For(n, work, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		})
		return got
	}
	if got := ranges(1000, SplitWork-1); len(got) != 1 {
		t.Fatalf("For under the floor ran %v, want one range", got)
	}
	if got := ranges(1000, SplitWork); len(got) != 4 {
		t.Fatalf("For at the floor ran %v, want four ranges", got)
	}
	cum := make([]int, 1001)
	for i := range 1000 {
		cum[i+1] = cum[i] + SplitWork/1000
	}
	if b := WeightedBounds(1000, cum); b != nil {
		t.Fatalf("WeightedBounds split %d steps, under the floor: %v", cum[1000], b)
	}
	t.Run("lowered", func(t *testing.T) {
		SetSplitWorkForTest(t, 64)
		if b := WeightedBounds(1000, cum); len(b) != 5 {
			t.Fatalf("WeightedBounds with the floor at 64 gave %v, want four ranges", b)
		}
	})
	if b := WeightedBounds(1000, cum); b != nil {
		t.Fatal("the lowered floor outlived its test")
	}
}

func TestPartitionByWeightBounds(t *testing.T) {
	cum := []int{0, 10, 20, 30, 40, 50}
	b := PartitionByWeight(5, 3, cum)
	if b[0] != 0 || b[len(b)-1] != 5 {
		t.Fatalf("bounds %v", b)
	}
	for k := 1; k < len(b); k++ {
		if b[k] <= b[k-1] {
			t.Fatalf("non-increasing bounds %v", b)
		}
	}
	if got := PartitionByWeight(0, 4, []int{0}); len(got) != 2 || got[0] != 0 {
		t.Fatalf("empty partition %v", got)
	}
}

func TestPanicPropagation(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic not propagated from worker")
		}
	}()
	For(1000, SplitWork, func(lo, hi int) {
		if lo <= 500 && 500 < hi {
			panic("worker failure")
		}
	})
}

func TestSetMaxWorkers(t *testing.T) {
	SetMaxWorkersForTest(t, 1)
	if MaxWorkers() != 1 {
		t.Fatalf("MaxWorkers %d", MaxWorkers())
	}
	// With one worker everything runs inline.
	ran := 0
	For(100, SplitWork, func(lo, hi int) { ran += hi - lo })
	if ran != 100 {
		t.Fatalf("ran %d", ran)
	}
	if SetMaxWorkers(0) != 1 {
		t.Fatal("SetMaxWorkers did not return previous value")
	}
	if MaxWorkers() != 1 {
		t.Fatalf("n<1 should clamp to 1, got %d", MaxWorkers())
	}
}

// fakeTB records cleanups like testing.T without running a real subtest.
type fakeTB struct{ cleanups []func() }

func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }

func TestSetMaxWorkersForTestRestores(t *testing.T) {
	SetMaxWorkersForTest(t, MaxWorkers()) // outer guard
	orig := MaxWorkers()
	ft := &fakeTB{}
	SetMaxWorkersForTest(ft, 2)
	if MaxWorkers() != 2 {
		t.Fatalf("bound not applied: %d", MaxWorkers())
	}
	SetMaxWorkersForTest(ft, 3)
	if MaxWorkers() != 3 {
		t.Fatalf("bound not applied: %d", MaxWorkers())
	}
	// LIFO cleanup, as testing.T runs them, must land back on the original.
	for i := len(ft.cleanups) - 1; i >= 0; i-- {
		ft.cleanups[i]()
	}
	if MaxWorkers() != orig {
		t.Fatalf("bound leaked: %d, want %d", MaxWorkers(), orig)
	}
}
