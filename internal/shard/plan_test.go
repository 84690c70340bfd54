package shard

import (
	"testing"
	"unsafe"

	"graphblas/internal/sparse"
)

// TestPlanPartitionInvariants checks, over a grid of (n, shards) shapes,
// that the routing arithmetic is a true partition: every global row has
// exactly one owner, local/global translation round-trips, and the
// per-shard row counts tile the vertex space.
func TestPlanPartitionInvariants(t *testing.T) {
	shapes := []struct{ n, shards int }{
		{1, 1}, {7, 1}, {7, 2}, {7, 3}, {7, 7},
		{64, 4}, {100, 8}, {1024, 16}, {1023, 16},
	}
	for _, sh := range shapes {
		p, err := NewPlan(sh.n, sh.shards)
		if err != nil {
			t.Fatalf("NewPlan(%d, %d): %v", sh.n, sh.shards, err)
		}
		total := 0
		for s := 0; s < p.Shards; s++ {
			total += p.LocalRows(s)
		}
		if total != sh.n {
			t.Errorf("%d/%d: LocalRows sums to %d, want %d", sh.n, sh.shards, total, sh.n)
		}
		counts := make([]int, p.Shards)
		for v := 0; v < sh.n; v++ {
			s := p.Owner(v)
			if s < 0 || s >= p.Shards {
				t.Fatalf("%d/%d: Owner(%d) = %d out of range", sh.n, sh.shards, v, s)
			}
			counts[s]++
			lr := p.Local(v)
			if lr < 0 || lr >= p.LocalRows(s) {
				t.Fatalf("%d/%d: Local(%d) = %d outside shard %d's %d rows",
					sh.n, sh.shards, v, lr, s, p.LocalRows(s))
			}
			if g := p.Global(s, lr); g != v {
				t.Fatalf("%d/%d: Global(%d, Local(%d)) = %d, want %d", sh.n, sh.shards, s, v, g, v)
			}
		}
		for s, c := range counts {
			if c != p.LocalRows(s) {
				t.Errorf("%d/%d: shard %d owns %d rows, LocalRows says %d",
					sh.n, sh.shards, s, c, p.LocalRows(s))
			}
		}
	}
}

// TestPlanBlockBalance: block shard sizes differ by at most one row and are
// contiguous ascending ranges.
func TestPlanBlockBalance(t *testing.T) {
	p, err := NewPlan(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{p.LocalRows(0), p.LocalRows(1), p.LocalRows(2)}
	want := []int{4, 3, 3}
	for i := range sizes {
		if sizes[i] != want[i] {
			t.Fatalf("block sizes %v, want %v", sizes, want)
		}
	}
	prev := -1
	for v := 0; v < 10; v++ {
		s := p.Owner(v)
		if s < prev {
			t.Fatalf("block ownership not monotone at row %d", v)
		}
		prev = s
	}
}

// TestPlanValidation: degenerate shapes are rejected.
func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(0, 1); err == nil {
		t.Error("NewPlan(0, 1) accepted")
	}
	if _, err := NewPlan(4, 0); err == nil {
		t.Error("NewPlan(4, 0) accepted")
	}
	if _, err := NewPlan(4, 5); err == nil {
		t.Error("NewPlan(4, 5) accepted — more shards than rows")
	}
}

// TestScatterDealsEachOwner: every entry of a sparse and of a full vector
// lands with its owner at its local row, in ascending order, in a store of
// its own: no part shares its values with the input, nor its positions
// unless both are the identity list of a full vector. A shard that owns no
// entry gets no part.
func TestScatterDealsEachOwner(t *testing.T) {
	const n = 103
	sparseIn := sparse.NewVec[float64](n)
	for v := 0; v < n/2; v += 1 + v%4 {
		sparseIn.Idx, sparseIn.Val = append(sparseIn.Idx, v), append(sparseIn.Val, float64(v)+0.5)
	}
	full, present := make([]float64, n), make([]bool, n)
	for v := range full {
		full[v], present[v] = float64(v)+0.5, true
	}
	fullIn := sparse.FromDense(full, present)
	p, err := NewPlan(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*sparse.Vec[float64]{sparseIn, fullIn} {
		parts := scatter(p, in)
		got := 0
		for s, part := range parts {
			if part == nil {
				for _, v := range in.Idx {
					if p.Owner(v) == s {
						t.Fatalf("shard %d owns %d but got no part", s, v)
					}
				}
				continue
			}
			if part.N != p.LocalRows(s) {
				t.Fatalf("shard %d: part size %d, want %d", s, part.N, p.LocalRows(s))
			}
			if overlaps(part.Val, in.Val) || !(part.Full() && in.Full()) && overlaps(part.Idx, in.Idx) {
				t.Fatalf("shard %d: part shares an array with the input", s)
			}
			for k, lr := range part.Idx {
				v := p.Global(s, lr)
				if p.Owner(v) != s || part.Val[k] != float64(v)+0.5 || k > 0 && lr <= part.Idx[k-1] {
					t.Fatalf("shard %d: entry %d (local %d, global %d) misplaced", s, k, lr, v)
				}
			}
			got += part.NVals()
		}
		if got != in.NVals() {
			t.Fatalf("dealt %d entries, want %d", got, in.NVals())
		}
		release(parts)
	}
}

// overlaps reports whether two slices share any element of their arrays.
func overlaps[T any](a, b []T) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(a[:1][0])
	alo := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	blo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return alo < blo+uintptr(cap(b))*size && blo < alo+uintptr(cap(a))*size
}
