package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"graphblas/internal/faults"
	"graphblas/internal/sparse"
)

// TestPendingTupleSemantics: buffered point updates must be invisible as an
// optimization — program order holds across interleaved sets, removes,
// duplicate positions, and operations reading the object.
func TestPendingTupleSemantics(t *testing.T) {
	m, _ := NewMatrix[float64](5, 5)
	// Duplicate position: last write wins.
	_ = m.SetElement(1, 2, 2)
	_ = m.SetElement(7, 2, 2)
	// Set then remove: gone.
	_ = m.SetElement(3, 0, 0)
	_ = m.RemoveElement(0, 0)
	// Remove then set: present.
	_ = m.SetElement(4, 1, 1)
	_ = m.RemoveElement(1, 1)
	_ = m.SetElement(5, 1, 1)
	// Remove of never-present: no-op.
	_ = m.RemoveElement(4, 4)

	if nv, _ := m.NVals(); nv != 2 {
		t.Fatalf("nvals %d want 2", nv)
	}
	if x, _ := m.ExtractElement(2, 2); x != 7 {
		t.Fatalf("(2,2) = %v", x)
	}
	if x, _ := m.ExtractElement(1, 1); x != 5 {
		t.Fatalf("(1,1) = %v", x)
	}
	if _, err := m.ExtractElement(0, 0); !IsNoValue(err) {
		t.Fatalf("(0,0): %v", err)
	}

	// An operation reading the matrix sees the flushed state; point updates
	// after the operation apply on top of its result in program order.
	s := plusTimesF64(t)
	c, _ := NewMatrix[float64](5, 5)
	if err := MxM(c, NoMask, NoAccum[float64](), s, m, m, nil); err != nil {
		t.Fatal(err)
	}
	// m(1,1)=5, m(2,2)=7 are diagonal: m² has 25 and 49.
	if x, _ := c.ExtractElement(1, 1); x != 25 {
		t.Fatalf("c(1,1) = %v", x)
	}
	_ = c.SetElement(-1, 0, 4)
	if x, _ := c.ExtractElement(0, 4); x != -1 {
		t.Fatalf("post-op set lost: %v", x)
	}
	if x, _ := c.ExtractElement(2, 2); x != 49 {
		t.Fatalf("c(2,2) = %v", x)
	}

	// The transpose cache must see pending updates.
	at, _ := NewMatrix[float64](5, 5)
	if err := Transpose(at, NoMask, NoAccum[float64](), m, nil); err != nil {
		t.Fatal(err)
	}
	_ = m.SetElement(9, 0, 3) // new entry after a transpose was cached
	at2, _ := NewMatrix[float64](5, 5)
	if err := Transpose(at2, NoMask, NoAccum[float64](), m, nil); err != nil {
		t.Fatal(err)
	}
	if x, err := at2.ExtractElement(3, 0); err != nil || x != 9 {
		t.Fatalf("stale transpose cache: %v %v", x, err)
	}

	// Vector path.
	v, _ := NewVector[float64](6)
	_ = v.SetElement(1, 3)
	_ = v.SetElement(2, 3)
	_ = v.RemoveElement(3)
	_ = v.SetElement(8, 5)
	if nv, _ := v.NVals(); nv != 1 {
		t.Fatalf("vec nvals %d", nv)
	}
	if x, _ := v.ExtractElement(5); x != 8 {
		t.Fatalf("v(5) = %v", x)
	}
	// Build after pending removals on a now-empty vector must succeed.
	_ = v.RemoveElement(5)
	if err := v.Build([]int{0}, []float64{1}, NoAccum[float64]()); err != nil {
		t.Fatalf("build after pending clear: %v", err)
	}
}

// pendingOf is the pending list of a matrix or vector, read under its lock,
// and the room its array has past it.
func pendingOf[D any](mu sync.Locker, p *[]sparse.Tuple[D]) ([]sparse.Tuple[D], int) {
	mu.Lock()
	defer mu.Unlock()
	return slices.Clone(*p), cap(*p) - len(*p)
}

// TestSetElementCostIndependentOfPending is the regression test for the
// quadratic point update: each SetElement's rollback snapshot copied the
// whole pending list, so k updates cost O(k²) time and bytes. The 20 000th
// update must allocate no more bytes than an early one, plus a small
// constant, on a matrix and on a vector; both are measured where the list's
// array has room, so neither pays for its growth.
func TestSetElementCostIndependentOfPending(t *testing.T) {
	withMode(t, Blocking, func() {
		m, _ := NewMatrix[float64](200, 200)
		v, _ := NewVector[float64](200)
		cases := []struct {
			name  string
			set   func(k int) error
			spare func() int
		}{
			{"Matrix", func(k int) error { return m.SetElement(1, k%200, k/200%200) },
				func() int { _, r := pendingOf(&m.mu, &m.pending); return r }},
			{"Vector", func(k int) error { return v.SetElement(1, k%200) },
				func() int { _, r := pendingOf(&v.mu, &v.pending); return r }},
		}
		for _, tc := range cases {
			k := 0
			// bytesAt is the fewest bytes one of three updates from the
			// n-th on allocated, so an allocation elsewhere in the process
			// cannot fail the test.
			bytesAt := func(n int) uint64 {
				least := ^uint64(0)
				for r := 0; r < 3; r++ {
					for ; k < n || tc.spare() < 1; k++ {
						if err := tc.set(k); err != nil {
							t.Fatal(err)
						}
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					err := tc.set(k)
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					k++
					least = min(least, after.TotalAlloc-before.TotalAlloc)
				}
				return least
			}
			if early, late := bytesAt(10), bytesAt(20000); late > early+1024 {
				t.Errorf("%s: update %d allocated %d bytes, update 10 %d: a point update costs what is pending", tc.name, k, late, early)
			}
		}
	})
}

// TestFailedSetElementRestoresPending: a SetElement failed by an injected
// fault leaves its object's pending list exactly as it was — the same tuples
// in the same order, nothing appended — on a matrix and on a vector, and the
// list it restores is clipped to its length, so the next append cannot
// write into an array a snapshot still reads.
func TestFailedSetElementRestoresPending(t *testing.T) {
	assertQuiescent(t)
	withMode(t, Blocking, func() {
		m, _ := NewMatrix[float64](8, 8)
		v, _ := NewVector[float64](8)
		cases := []struct {
			name    string
			set     func(k int) error
			pending func() ([]sparse.Tuple[float64], int)
		}{
			{"Matrix.SetElement", func(k int) error { return m.SetElement(float64(k), k%8, k/8%8) },
				func() ([]sparse.Tuple[float64], int) { return pendingOf(&m.mu, &m.pending) }},
			{"Vector.SetElement", func(k int) error { return v.SetElement(float64(k), k%8) },
				func() ([]sparse.Tuple[float64], int) { return pendingOf(&v.mu, &v.pending) }},
		}
		for _, tc := range cases {
			for k := 0; k < 5; k++ {
				if err := tc.set(k); err != nil {
					t.Fatal(err)
				}
			}
			prior, _ := tc.pending()
			withFaults(t, 1, faults.Rule{Site: tc.name, Kind: faults.KernelErr})
			if err := tc.set(99); err == nil {
				t.Fatalf("%s: the injected fault did not fail it", tc.name)
			}
			faults.Disable()
			if got, room := tc.pending(); !slices.Equal(got, prior) || room != 0 {
				t.Fatalf("%s: pending after the failure is %v (room %d), want %v (room 0)", tc.name, got, room, prior)
			}
		}
	})
}
