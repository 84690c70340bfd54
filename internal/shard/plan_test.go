package shard

import "testing"

// TestPlanPartitionInvariants checks, for both strategies over a grid of
// (n, shards) shapes, that the routing arithmetic is a true partition:
// every global row has exactly one owner, local/global translation round-
// trips, and the per-shard row counts tile the vertex space.
func TestPlanPartitionInvariants(t *testing.T) {
	shapes := []struct{ n, shards int }{
		{1, 1}, {7, 1}, {7, 2}, {7, 3}, {7, 7},
		{64, 4}, {100, 8}, {1024, 16}, {1023, 16},
	}
	for _, st := range []Strategy{Block, Hash} {
		for _, sh := range shapes {
			p, err := NewPlan(sh.n, sh.shards, st)
			if err != nil {
				t.Fatalf("NewPlan(%d, %d, %v): %v", sh.n, sh.shards, st, err)
			}
			total := 0
			for s := 0; s < p.Shards; s++ {
				total += p.LocalRows(s)
			}
			if total != sh.n {
				t.Errorf("%v %d/%d: LocalRows sums to %d, want %d", st, sh.n, sh.shards, total, sh.n)
			}
			counts := make([]int, p.Shards)
			for v := 0; v < sh.n; v++ {
				s := p.Owner(v)
				if s < 0 || s >= p.Shards {
					t.Fatalf("%v %d/%d: Owner(%d) = %d out of range", st, sh.n, sh.shards, v, s)
				}
				counts[s]++
				lr := p.Local(v)
				if lr < 0 || lr >= p.LocalRows(s) {
					t.Fatalf("%v %d/%d: Local(%d) = %d outside shard %d's %d rows",
						st, sh.n, sh.shards, v, lr, s, p.LocalRows(s))
				}
				if g := p.Global(s, lr); g != v {
					t.Fatalf("%v %d/%d: Global(%d, Local(%d)) = %d, want %d", st, sh.n, sh.shards, s, v, g, v)
				}
			}
			for s, c := range counts {
				if c != p.LocalRows(s) {
					t.Errorf("%v %d/%d: shard %d owns %d rows, LocalRows says %d",
						st, sh.n, sh.shards, s, c, p.LocalRows(s))
				}
			}
		}
	}
}

// TestPlanBlockBalance: block shard sizes differ by at most one row and are
// contiguous ascending ranges.
func TestPlanBlockBalance(t *testing.T) {
	p, err := NewPlan(10, 3, Block)
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

// TestPlanHashStriding: hash ownership is the residue class.
func TestPlanHashStriding(t *testing.T) {
	p, err := NewPlan(100, 7, Hash)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 100; v++ {
		if p.Owner(v) != v%7 {
			t.Fatalf("Owner(%d) = %d, want %d", v, p.Owner(v), v%7)
		}
	}
}

// TestPlanValidation: degenerate shapes are rejected.
func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(0, 1, Block); err == nil {
		t.Error("NewPlan(0, 1) accepted")
	}
	if _, err := NewPlan(4, 0, Block); err == nil {
		t.Error("NewPlan(4, 0) accepted")
	}
	if _, err := NewPlan(4, 5, Block); err == nil {
		t.Error("NewPlan(4, 5) accepted — more shards than rows")
	}
	if _, err := NewPlan(4, 2, Strategy(9)); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestScatterTuplesDealsEachOwner: for both strategies, every tuple of an
// ascending vector lands with its owner at its local row, in ascending
// order, and a Block plan's parts are cut at their exact size.
func TestScatterTuplesDealsEachOwner(t *testing.T) {
	const n = 103
	var idx []int
	var vals []float64
	for v := 0; v < n; v += 1 + v%4 {
		idx, vals = append(idx, v), append(vals, float64(v)+0.5)
	}
	for _, st := range []Strategy{Block, Hash} {
		p, err := NewPlan(n, 4, st)
		if err != nil {
			t.Fatal(err)
		}
		parts := scatterTuples(p, idx, vals)
		got := 0
		for s, part := range parts {
			if part.N != p.LocalRows(s) {
				t.Fatalf("%v shard %d: part size %d, want %d", st, s, part.N, p.LocalRows(s))
			}
			if st == Block && (cap(part.Idx) != len(part.Idx) || cap(part.Val) != len(part.Val)) {
				t.Fatalf("%v shard %d: part not cut at its exact size", st, s)
			}
			for k, lr := range part.Idx {
				v := p.Global(s, lr)
				if p.Owner(v) != s || part.Val[k] != float64(v)+0.5 || k > 0 && lr <= part.Idx[k-1] {
					t.Fatalf("%v shard %d: tuple %d (local %d, global %d) misplaced", st, s, k, lr, v)
				}
			}
			got += part.NVals()
		}
		if got != len(idx) {
			t.Fatalf("%v: dealt %d tuples, want %d", st, got, len(idx))
		}
	}
}
