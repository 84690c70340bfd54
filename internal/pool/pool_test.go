package pool

import (
	"runtime"
	"testing"
	"weak"
)

func TestGetReturnsZeroedLengthN(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, 64, 100, 1 << 12} {
		s := GetInts(n)
		if len(s) != n {
			t.Fatalf("GetInts(%d): len = %d", n, len(s))
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("GetInts(%d)[%d] = %d, want 0", n, i, v)
			}
		}
		for i := range s {
			s[i] = i + 1 // dirty it before returning
		}
		PutInts(s)
	}
	// A recycled buffer must come back zeroed even though it was dirtied.
	s := GetInts(100)
	for i, v := range s {
		if v != 0 {
			t.Fatalf("recycled GetInts(100)[%d] = %d, want 0", i, v)
		}
	}
	PutInts(s)
}

func TestRecyclesBacking(t *testing.T) {
	a := GetBools(500)
	a[0] = true
	PutBools(a)
	b := GetBools(400) // same class (512), must reuse the shelved buffer
	if cap(b) != cap(a[:cap(a)]) || &b[0] != &a[0] {
		t.Fatalf("GetBools(400) did not recycle the shelved 500-cap buffer")
	}
	if b[0] {
		t.Fatalf("recycled buffer not cleared")
	}
	PutBools(b)
}

func TestClassFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := classFor(n); got != want {
			t.Fatalf("classFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestOversizedBypassesShelves(t *testing.T) {
	huge := 1<<maxClass + 1
	s := GetInt32s(huge)
	if len(s) != huge {
		t.Fatalf("oversized GetInt32s: len = %d", len(s))
	}
	PutInt32s(s) // dropped, not shelved — must not panic
}

// TestSteadyStateAllocFree is the pool's reason to exist: once warm, a
// Get/Put round trip performs zero allocations. sync.Pool cannot pass this
// test with slice values — boxing the header on Put allocates.
func TestSteadyStateAllocFree(t *testing.T) {
	PutInts(GetInts(1 << 10))
	PutInt32s(GetInt32s(1 << 10))
	PutBools(GetBools(1 << 10))
	allocs := testing.AllocsPerRun(200, func() {
		i := GetInts(1 << 10)
		j := GetInt32s(1 << 10)
		b := GetBools(1 << 10)
		PutBools(b)
		PutInt32s(j)
		PutInts(i)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f objects per run, want 0", allocs)
	}
}

// TestValsRecycleByDomain: a recycled value array comes back zeroed to the
// next draw of its domain and class; a domain outside the number set is
// never shelved.
func TestValsRecycleByDomain(t *testing.T) {
	a := Vals[float64](300)
	a[0] = 7
	Recycle(a)
	b := Vals[float64](400) // the same class, 512
	if &b[0] != &a[0] || b[0] != 0 {
		t.Fatalf("Vals[float64](200) did not reuse the recycled array zeroed")
	}
	if Holds(b) {
		t.Fatal("Holds reports an array that was drawn, not shelved")
	}
	Recycle(b)
	if !Holds(b[10:20]) {
		t.Fatal("Holds missed a slice of a shelved array")
	}
	// An index list goes back to the int value shelves; a scratch int
	// buffer to the int freelist. Holds looks on both.
	list := Vals[int](100)
	Recycle(list)
	if !Holds(list[:3:3]) {
		t.Fatal("Holds missed a length-clipped prefix of a shelved index list")
	}
	scratch := GetInts(100)
	PutInts(scratch)
	if !Holds(scratch[:1]) {
		t.Fatal("Holds missed an array on the int scratch freelist")
	}
	type label struct{ s string }
	before := Retained()
	Recycle(Vals[label](300))
	if got := Retained(); got != before {
		t.Fatalf("a non-number domain was shelved: retained %d -> %d", before, got)
	}
}

// TestRawValsSkipTheClear: RawVals and GetVals hand the recycled array
// over as its last holder left it; Vals clears it.
func TestRawValsSkipTheClear(t *testing.T) {
	a := Vals[int64](300)
	a[0], a[299] = 7, 9
	Recycle(a)
	b := RawVals[int64](400) // the same class, 512
	if &b[0] != &a[0] || b[0] != 7 || b[299] != 9 || len(b) != 400 {
		t.Fatalf("RawVals did not hand the recycled array over as left: b[0] = %d", b[0])
	}
	Recycle(b)
	c := GetVals[int64](260)
	if &c[0] != &a[0] || c[0] != 7 {
		t.Fatalf("GetVals did not hand the recycled array over as left: c[0] = %d", c[0])
	}
	PutVals(c)
	if d := Vals[int64](300); &d[0] != &a[0] || d[0] != 0 || d[299] != 0 {
		t.Fatal("Vals did not clear the recycled array")
	}
}

// TestRetainedBudget: whatever scratch comes back, the shelves never hold
// more than the fixed budget.
func TestRetainedBudget(t *testing.T) {
	const n = 1 << 16 // 512 KiB of int per array
	const fit = maxRetained / (8 * n)
	for i := 0; i < 2*fit; i++ {
		intFree.put(make([]int, n))
	}
	if got := Retained(); got > maxRetained {
		t.Fatalf("retained %d bytes, budget %d", got, maxRetained)
	}
	for i := 0; i < fit; i++ {
		intFree.get(n) // drain the class again for the tests after this one
	}
}

// TestValueShelvesDoNotKeepArraysAlive: a recycled value array nothing
// else holds is the collector's — the shelves do not make it live heap.
func TestValueShelvesDoNotKeepArraysAlive(t *testing.T) {
	a := make([]float64, 3000)
	w := weak.Make(&a[0])
	if !Recycle(a) {
		t.Fatal("Recycle did not shelve a float64 array")
	}
	a = nil
	runtime.GC()
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("a shelved value array survived a collection nothing else held it through")
	}
	if b := Vals[float64](3000); len(b) != 3000 || b[0] != 0 {
		t.Fatal("Vals did not draw a fresh zeroed array past the collected entry")
	}
}

// TestOutstandingCountsScratch: every scratch draw counts until its Put;
// result arrays drawn with Vals never do.
func TestOutstandingCountsScratch(t *testing.T) {
	base := Outstanding()
	i, v := GetInts(10), GetVals[float32](10)
	if got := Outstanding() - base; got != 2 {
		t.Fatalf("outstanding after two Gets = %d, want 2", got)
	}
	Recycle(Vals[float32](10))
	PutVals(v)
	PutInts(i)
	if got := Outstanding() - base; got != 0 {
		t.Fatalf("outstanding after the Puts = %d, want 0", got)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				s := GetInts(256)
				s[i%256] = i
				PutInts(s)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
