package stream

import (
	"strings"
	"testing"

	"graphblas/internal/faults"
	"graphblas/internal/format"
	"graphblas/internal/leakcheck"
	"graphblas/internal/sparse"
)

func TestBatchBuilder(t *testing.T) {
	b := NewBatch[float64]()
	b.Insert(1, 2, 5)
	b.Insert(1, 2, 7) // last wins at seal
	b.Delete(0, 0)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dedup happens at Seal)", b.Len())
	}
	d, err := b.Seal(3, 3)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if d.NNZ() != 2 {
		t.Fatalf("sealed NNZ = %d, want 2", d.NNZ())
	}
	if v, del, ok := d.Lookup(1, 2); !ok || del || v != 7 {
		t.Fatalf("Lookup(1,2) = %v,%v,%v; want last write 7", v, del, ok)
	}
	if _, del, ok := d.Lookup(0, 0); !ok || !del {
		t.Fatalf("Lookup(0,0): tombstone expected")
	}
	// The builder stays usable after Seal; Reset empties it.
	b.Insert(2, 2, 1)
	if b.Len() != 4 {
		t.Fatalf("builder frozen after Seal")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Reset left %d ops", b.Len())
	}
	d2, err := b.Seal(3, 3)
	if err != nil || d2.NNZ() != 0 {
		t.Fatalf("empty seal: %v nnz %d", err, d2.NNZ())
	}
}

func TestBatchSealBounds(t *testing.T) {
	b := NewBatch[int]()
	b.Insert(2, 5, 1)
	if _, err := b.Seal(3, 5); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Seal must reject (2,5) in 3x5, got %v", err)
	}
	if _, err := b.Seal(3, 6); err != nil {
		t.Fatalf("Seal in 3x6: %v", err)
	}
}

func TestPolicyDue(t *testing.T) {
	if (Policy{}).Due(1<<30, 1<<30) {
		t.Fatalf("manual policy must never be due")
	}
	p := DefaultPolicy()
	if p.Due(100, 3) {
		t.Fatalf("default policy due too early")
	}
	if !p.Due(p.MaxDeltaNNZ, 0) || !p.Due(0, p.MaxBatches) {
		t.Fatalf("default policy must trigger on either bound")
	}
	if !Eager().Due(0, 1) {
		t.Fatalf("eager policy must trigger on the first batch")
	}
}

func TestAbsorbAndCompact(t *testing.T) {
	main := sparse.NewCSR[float64](4, 4)
	main.Set(0, 0, 1)
	main.Set(1, 1, 2)

	b1 := NewBatch[float64]()
	b1.Insert(0, 3, 9)
	b1.Delete(1, 1)
	d1, err := b1.Seal(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewBatch[float64]()
	b2.Insert(1, 1, 7) // resurrect the deleted edge
	d2, err := b2.Seal(4, 4)
	if err != nil {
		t.Fatal(err)
	}

	overlay := Absorb(nil, d1)
	overlay = Absorb(overlay, d2)
	out := Compact(main, overlay)
	want := map[[2]int]float64{{0, 0}: 1, {0, 3}: 9, {1, 1}: 7}
	if out.NNZ() != len(want) {
		t.Fatalf("NNZ = %d, want %d", out.NNZ(), len(want))
	}
	for k, v := range want {
		if got, ok := out.Get(k[0], k[1]); !ok || got != v {
			t.Fatalf("(%d,%d) = %v,%v; want %v", k[0], k[1], got, ok, v)
		}
	}
	if got, ok := main.Get(1, 1); !ok || got != 2 {
		t.Fatalf("Compact mutated its input: (1,1) = %v,%v", got, ok)
	}
}

// TestKernelFaultSites proves the registered stream.* sites are the ones the
// kernels actually draw, in the order a fault plan would see them.
func TestKernelFaultSites(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	for _, site := range []string{"stream.kernel.absorb", "stream.kernel.merge"} {
		func() {
			faults.Configure(1, faults.Rule{Site: site, Kind: faults.KernelErr, Times: 1})
			defer faults.Disable()
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("site %s: fault expected", site)
				}
			}()
			b := NewBatch[float64]()
			b.Insert(0, 0, 1)
			d, _ := b.Seal(2, 2)
			Compact(sparse.NewCSR[float64](2, 2), Absorb(nil, d))
		}()
	}
	// The governor gate: an overlay larger than the budget fails absorption.
	faults.Configure(1)
	defer faults.Disable()
	prev := faults.SetAllocBudget(1)
	defer faults.SetAllocBudget(prev)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("stream.alloc.delta: governor fault expected")
			}
		}()
		b := NewBatch[float64]()
		for i := 0; i < 64; i++ {
			b.Insert(i, i, 1)
		}
		d, _ := b.Seal(64, 64)
		Absorb(nil, d)
	}()
}

func TestEpochSnapshot(t *testing.T) {
	main := sparse.NewCSR[float64](3, 3)
	main.Set(0, 0, 1)
	main.Set(2, 2, 4)
	d := format.DeltaFromTuples(3, 3, []sparse.Tuple[float64]{
		{I: 0, J: 0, Del: true},
		{I: 1, J: 1, V: 5},
		{I: 2, J: 0, Del: true}, // delete of an absent element: no effect on NVals
	})
	e := NewEpoch(3, main, d)
	if e.ID() != 3 {
		t.Fatalf("ID = %d", e.ID())
	}
	if nr, nc := e.Dims(); nr != 3 || nc != 3 {
		t.Fatalf("Dims = %dx%d", nr, nc)
	}
	if e.NVals() != 2 {
		t.Fatalf("NVals = %d, want 2 (one delete, one insert)", e.NVals())
	}
	if e.DeltaNVals() != 3 {
		t.Fatalf("DeltaNVals = %d", e.DeltaNVals())
	}
	if _, ok := e.Get(0, 0); ok {
		t.Fatalf("(0,0) must be hidden by the tombstone")
	}
	if v, ok := e.Get(1, 1); !ok || v != 5 {
		t.Fatalf("(1,1) = %v,%v", v, ok)
	}
	if v, ok := e.Get(2, 2); !ok || v != 4 {
		t.Fatalf("(2,2) must read through to main, got %v,%v", v, ok)
	}
	is, js, vs := e.Tuples()
	if len(is) != 2 || len(js) != 2 || len(vs) != 2 {
		t.Fatalf("Tuples len %d/%d/%d", len(is), len(js), len(vs))
	}
	// A nil-delta epoch serves the main store directly.
	e0 := NewEpoch[float64](0, main, nil)
	if e0.NVals() != 2 || e0.DeltaNVals() != 0 {
		t.Fatalf("nil-delta epoch: NVals %d DeltaNVals %d", e0.NVals(), e0.DeltaNVals())
	}
}
