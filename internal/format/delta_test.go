package format

import (
	"math/rand"
	"testing"

	"graphblas/internal/sparse"
)

func deltaOf(t *testing.T, nr, nc int, ts ...sparse.Tuple[float64]) *HyperDelta[float64] {
	t.Helper()
	return DeltaFromTuples(nr, nc, ts)
}

func TestDeltaFromTuplesLastWins(t *testing.T) {
	d := deltaOf(t, 4, 4,
		sparse.Tuple[float64]{I: 2, J: 1, V: 1},
		sparse.Tuple[float64]{I: 0, J: 3, V: 5},
		sparse.Tuple[float64]{I: 2, J: 1, V: 7},      // overwrite
		sparse.Tuple[float64]{I: 0, J: 3, Del: true}, // delete wins over insert
		sparse.Tuple[float64]{I: 3, J: 0, Del: true}, // tombstone for unseen element
		sparse.Tuple[float64]{I: 3, J: 0, V: 9},      // then re-insert
	)
	if d.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 after dedup", d.NNZ())
	}
	if v, del, ok := d.Lookup(2, 1); !ok || del || v != 7 {
		t.Fatalf("Lookup(2,1) = %v,%v,%v; want 7,false,true", v, del, ok)
	}
	if _, del, ok := d.Lookup(0, 3); !ok || !del {
		t.Fatalf("Lookup(0,3): tombstone expected")
	}
	if v, del, ok := d.Lookup(3, 0); !ok || del || v != 9 {
		t.Fatalf("Lookup(3,0) = %v,%v,%v; want 9,false,true", v, del, ok)
	}
	if _, _, ok := d.Lookup(1, 1); ok {
		t.Fatalf("Lookup(1,1): no update recorded there")
	}
}

func TestMergeDeltasAddWins(t *testing.T) {
	old := deltaOf(t, 4, 4,
		sparse.Tuple[float64]{I: 1, J: 1, V: 1},
		sparse.Tuple[float64]{I: 1, J: 2, V: 2},
		sparse.Tuple[float64]{I: 3, J: 3, Del: true},
	)
	add := deltaOf(t, 4, 4,
		sparse.Tuple[float64]{I: 1, J: 2, Del: true}, // shadows old insert
		sparse.Tuple[float64]{I: 2, J: 0, V: 8},      // new row between old rows
		sparse.Tuple[float64]{I: 3, J: 3, V: 6},      // resurrects old tombstone
	)
	m := MergeDeltas(old, add)
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
	if v, _, _ := m.Lookup(1, 1); v != 1 {
		t.Fatalf("(1,1) lost: %v", v)
	}
	if _, del, ok := m.Lookup(1, 2); !ok || !del {
		t.Fatalf("(1,2): add's tombstone must win")
	}
	if v, del, ok := m.Lookup(3, 3); !ok || del || v != 6 {
		t.Fatalf("(3,3): add's insert must win, got %v,%v,%v", v, del, ok)
	}
	// Identity cases share structure instead of copying.
	if got := MergeDeltas(nil, add); got != add {
		t.Fatalf("MergeDeltas(nil, add) must return add")
	}
	if got := MergeDeltas(old, nil); got != old {
		t.Fatalf("MergeDeltas(old, nil) must return old")
	}
}

func TestMergeDeltaCSRAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nr, nc = 12, 9
	for trial := 0; trial < 50; trial++ {
		model := map[[2]int]float64{}
		var is, js []int
		var vs []float64
		for i := 0; i < nr; i++ {
			for j := 0; j < nc; j++ {
				if rng.Float64() < 0.3 {
					v := float64(rng.Intn(9) + 1)
					model[[2]int{i, j}] = v
					is, js, vs = append(is, i), append(js, j), append(vs, v)
				}
			}
		}
		main, _ := sparse.BuildCSR(nr, nc, is, js, vs, nil)
		var ts []sparse.Tuple[float64]
		for k := 0; k < 40; k++ {
			i, j := rng.Intn(nr), rng.Intn(nc)
			if rng.Float64() < 0.35 {
				ts = append(ts, sparse.Tuple[float64]{I: i, J: j, Del: true})
				delete(model, [2]int{i, j})
			} else {
				v := float64(rng.Intn(9) + 1)
				ts = append(ts, sparse.Tuple[float64]{I: i, J: j, V: v})
				model[[2]int{i, j}] = v
			}
		}
		got := MergeDeltaCSR(main, DeltaFromTuples(nr, nc, ts))
		if got.NNZ() != len(model) {
			t.Fatalf("trial %d: NNZ %d, want %d", trial, got.NNZ(), len(model))
		}
		gi, gj, gv := got.Tuples()
		for k := range gi {
			if model[[2]int{gi[k], gj[k]}] != gv[k] {
				t.Fatalf("trial %d: (%d,%d)=%v, want %v", trial, gi[k], gj[k], gv[k], model[[2]int{gi[k], gj[k]}])
			}
		}
	}
}

func TestMergeDeltaCSRClampsOutOfRange(t *testing.T) {
	// The overlay may hold updates a later Resize put out of range; the
	// merge must drop them rather than corrupt the store.
	main := sparse.NewCSR[float64](2, 2)
	main.Set(0, 0, 1)
	d := deltaOf(t, 5, 5,
		sparse.Tuple[float64]{I: 0, J: 1, V: 2},
		sparse.Tuple[float64]{I: 0, J: 4, V: 9}, // col out of range
		sparse.Tuple[float64]{I: 4, J: 0, V: 9}, // row out of range
	)
	got := MergeDeltaCSR(main, d)
	if got.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (out-of-range updates dropped)", got.NNZ())
	}
	if _, ok := got.Get(0, 1); !ok {
		t.Fatalf("in-range insert lost")
	}
}
