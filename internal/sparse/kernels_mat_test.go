package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fullMask returns a mask admitting exactly the pattern of m.
func patternMask(m *CSR[float64], comp bool) *MatMask {
	return &MatMask{NCols: m.NCols, EffPtr: m.Ptr, EffIdx: m.ColIdx, StrPtr: m.Ptr, StrIdx: m.ColIdx, Comp: comp}
}

// Property: UnionCSR matches the dense-model union.
func TestQuickUnionCSR(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr, nc := 1+rng.Intn(15), 1+rng.Intn(15)
		a, am := randCSR(rng, nr, nc, 0.35)
		b, bm := randCSR(rng, nr, nc, 0.35)
		u := UnionCSR(a, b, addF, OpNone)
		want := map[[2]int]float64{}
		for k, v := range am {
			want[k] = v
		}
		for k, v := range bm {
			if cv, ok := want[k]; ok {
				want[k] = cv + v
			} else {
				want[k] = v
			}
		}
		if u.NNZ() != len(want) {
			return false
		}
		is, js, vs := u.Tuples()
		for k := range is {
			if want[[2]int{is[k], js[k]}] != vs[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: IntersectCSR matches the dense-model intersection.
func TestQuickIntersectCSR(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nr, nc := 1+rng.Intn(15), 1+rng.Intn(15)
		a, am := randCSR(rng, nr, nc, 0.45)
		b, bm := randCSR(rng, nr, nc, 0.45)
		u := IntersectCSR(a, b, mulF, OpNone)
		count := 0
		for k, av := range am {
			if bv, ok := bm[k]; ok {
				count++
				if got, ok := u.Get(k[0], k[1]); !ok || got != av*bv {
					return false
				}
			}
		}
		return u.NNZ() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyAndWriteCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a, am := randCSR(rng, 10, 10, 0.4)
	neg := ApplyCSR(a, func(v float64) float64 { return -v })
	checkCSRInvariants(t, neg, "apply")
	is, js, vs := neg.Tuples()
	for k := range is {
		if vs[k] != -am[[2]int{is[k], js[k]}] {
			t.Fatalf("apply wrong at (%d,%d)", is[k], js[k])
		}
	}
	// WriteCSR with accumulator equals union.
	c, cm := randCSR(rng, 10, 10, 0.3)
	out := WriteCSR(c, neg, nil, addF, OpNone, false)
	checkCSRInvariants(t, out, "write accum")
	oi, oj, ov := out.Tuples()
	for k := range oi {
		key := [2]int{oi[k], oj[k]}
		want := cm[key] - am[key] // accum(c, -a); missing entries are 0 in the model
		if ov[k] != want {
			t.Fatalf("write accum (%d,%d) got %v want %v", oi[k], oj[k], ov[k], want)
		}
	}
	// MaskMergeCSR with a complemented pattern mask and replace keeps only
	// z entries outside c's pattern... using c's own pattern as mask.
	z := ApplyCSR(a, func(v float64) float64 { return v * 10 })
	merged := MaskMergeCSR(c, z, patternMask(c, false), true)
	checkCSRInvariants(t, merged, "mask merge")
	mi, mj, mv := merged.Tuples()
	for k := range mi {
		key := [2]int{mi[k], mj[k]}
		if _, inC := cm[key]; !inC {
			t.Fatalf("masked merge leaked outside mask at %v", key)
		}
		if mv[k] != 10*am[key] {
			t.Fatalf("masked merge value at %v", key)
		}
	}
}

func TestExtractColCSR(t *testing.T) {
	a, _ := BuildCSR(4, 3, []int{0, 1, 3}, []int{1, 2, 1}, []float64{5, 6, 7}, nil)
	w := ExtractColCSR(a, []int{3, 0, 2}, 1)
	if w.N != 3 || w.NVals() != 2 {
		t.Fatalf("col extract %v %v", w.Idx, w.Val)
	}
	if v, ok := w.Get(0); !ok || v != 7 { // row 3 → output 0
		t.Fatalf("w(0) %v %v", v, ok)
	}
	if v, ok := w.Get(1); !ok || v != 5 { // row 0 → output 1
		t.Fatalf("w(1) %v %v", v, ok)
	}
}

func TestAssignKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c, cm := randCSR(rng, 8, 8, 0.3)

	t.Run("scalar block", func(t *testing.T) {
		out := AssignScalarExpandCSR(c, 9, []int{1, 5}, []int{0, 7}, nil)
		checkCSRInvariants(t, out, "scalar assign")
		for _, i := range []int{1, 5} {
			for _, j := range []int{0, 7} {
				if v, ok := out.Get(i, j); !ok || v != 9 {
					t.Fatalf("(%d,%d) not assigned", i, j)
				}
			}
		}
		// Outside region unchanged.
		for k, v := range cm {
			inRegion := (k[0] == 1 || k[0] == 5) && (k[1] == 0 || k[1] == 7)
			if !inRegion {
				if got, ok := out.Get(k[0], k[1]); !ok || got != v {
					t.Fatalf("outside region changed at %v", k)
				}
			}
		}
	})
	t.Run("matrix region with accum", func(t *testing.T) {
		sub, _ := BuildCSR(2, 2, []int{0, 1}, []int{0, 1}, []float64{100, 200}, nil)
		out := AssignExpandCSR(c, sub, []int{2, 4}, []int{3, 6}, addF)
		checkCSRInvariants(t, out, "assign accum")
		want := cm[[2]int{2, 3}] + 100
		if v, _ := out.Get(2, 3); v != want {
			t.Fatalf("(2,3) got %v want %v", v, want)
		}
		want = cm[[2]int{4, 6}] + 200
		if v, _ := out.Get(4, 6); v != want {
			t.Fatalf("(4,6) got %v want %v", v, want)
		}
		// accum keeps c where sub is empty: (2,6) and (4,3).
		if v, ok := out.Get(2, 6); ok != (cm[[2]int{2, 6}] != 0 || hasKey(cm, 2, 6)) || (ok && v != cm[[2]int{2, 6}]) {
			t.Fatalf("(2,6) got %v %v", v, ok)
		}
	})
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	t.Run("row and col", func(t *testing.T) {
		u := &Vec[float64]{N: 8, Idx: []int{0, 4}, Val: []float64{1, 2}}
		out := AssignRowCSR(c, u, 3, all, nil, nil, false)
		checkCSRInvariants(t, out, "row assign")
		if v, ok := out.Get(3, 0); !ok || v != 1 {
			t.Fatalf("row assign (3,0)")
		}
		if _, ok := out.Get(3, 2); ok {
			t.Fatalf("row assign should delete (3,2)")
		}
		out2 := AssignColCSR(c, u, all, 5, nil, nil, false)
		checkCSRInvariants(t, out2, "col assign")
		if v, ok := out2.Get(0, 5); !ok || v != 1 {
			t.Fatalf("col assign (0,5)")
		}
		if v, ok := out2.Get(4, 5); !ok || v != 2 {
			t.Fatalf("col assign (4,5)")
		}
		if _, ok := out2.Get(2, 5); ok {
			t.Fatalf("col assign should delete (2,5)")
		}
	})
	t.Run("merge column and row", func(t *testing.T) {
		vm := &VecMask{N: 8, Idx: []int{1}, Structure: []int{1}}
		out := AssignColCSR(c, &Vec[float64]{N: 8, Idx: []int{1}, Val: []float64{42}}, all, 2, nil, vm, true)
		checkCSRInvariants(t, out, "masked col")
		if v, ok := out.Get(1, 2); !ok || v != 42 {
			t.Fatalf("masked col kept %v %v", v, ok)
		}
		// replace deletes column-2 entries outside the mask...
		for i := 0; i < 8; i++ {
			if i == 1 {
				continue
			}
			if _, ok := out.Get(i, 2); ok {
				t.Fatalf("masked col left (%d,2)", i)
			}
		}
		// ...but other columns are untouched.
		for k, v := range cm {
			if k[1] != 2 {
				if got, ok := out.Get(k[0], k[1]); !ok || got != v {
					t.Fatalf("masked col disturbed %v", k)
				}
			}
		}
		rout := AssignRowCSR(c, &Vec[float64]{N: 8, Idx: []int{3}, Val: []float64{7}}, 4, all, nil, &VecMask{N: 8, Idx: []int{3}, Structure: []int{3}}, false)
		checkCSRInvariants(t, rout, "masked row")
		if v, ok := rout.Get(4, 3); !ok || v != 7 {
			t.Fatalf("masked row value %v %v", v, ok)
		}
		for k, v := range cm {
			if k[0] == 4 && k[1] == 3 {
				continue
			}
			if got, ok := rout.Get(k[0], k[1]); !ok || got != v {
				t.Fatalf("masked row disturbed %v", k)
			}
		}
	})
}

func hasKey(m map[[2]int]float64, i, j int) bool {
	_, ok := m[[2]int{i, j}]
	return ok
}

func TestCSRCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a, _ := randCSR(rng, 6, 6, 0.4)
	b := a.Clone()
	b.Set(0, 0, 999)
	if v, ok := a.Get(0, 0); ok && v == 999 {
		t.Fatal("clone shares storage")
	}
	nnz := b.NNZ()
	for i := 0; i < a.NRows; i++ {
		for _, j := range append([]int(nil), a.ColIdx[a.Ptr[i]:a.Ptr[i+1]]...) {
			a.Remove(i, j)
		}
	}
	if a.NNZ() != 0 {
		t.Fatal("remove")
	}
	if b.NNZ() != nnz {
		t.Fatal("removing from the source affected the clone")
	}
}
