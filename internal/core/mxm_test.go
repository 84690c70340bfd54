package core

import (
	"fmt"
	"math/rand"
	"testing"

	"graphblas/internal/sparse"
)

// plusF64 / plusTimesF64 build the arithmetic semiring pieces locally (the
// builtins package depends on core, so core tests construct operators by
// hand) — as predefined operators, the way builtins.PlusTimes does, so the
// kernels see their opcodes.
func plusF64() BinaryOp[float64, float64, float64] {
	return PredefinedBinaryOp(sparse.OpPlus, "plus", func(x, y float64) float64 { return x + y })
}

func plusTimesF64(t *testing.T) Semiring[float64, float64, float64] {
	t.Helper()
	add, err := NewMonoid(plusF64(), 0)
	if err != nil {
		t.Fatalf("NewMonoid: %v", err)
	}
	mul := PredefinedBinaryOp(sparse.OpTimes, "times", func(x, y float64) float64 { return x * y })
	s, err := NewSemiring(add, mul)
	if err != nil {
		t.Fatalf("NewSemiring: %v", err)
	}
	return s
}

// TestFig2MxMSweep exhaustively checks the GrB_mxm semantics of Figure 2:
// every combination of {tranA, tranB, mask presence, SCMP, accumulator,
// REPLACE} against the dense oracle (EXPERIMENTS.md E3).
func TestFig2MxMSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const (
		anr, anc, bnc = 7, 5, 6
	)
	s := plusTimesF64(t)
	for _, tranA := range []bool{false, true} {
		for _, tranB := range []bool{false, true} {
			// Build A and B shaped so the (possibly transposed) product is
			// (anr x anc') compatible.
			ar, ac := anr, anc
			if tranA {
				ar, ac = anc, anr
			}
			br, bc := anc, bnc
			if tranB {
				br, bc = bnc, anc
			}
			a, ad := newTestMatrix(t, rng, ar, ac, 0.4)
			b, bd := newTestMatrix(t, rng, br, bc, 0.4)
			for _, useMask := range []bool{false, true} {
				for _, scmp := range []bool{false, true} {
					if scmp && !useMask {
						continue
					}
					for _, accum := range []bool{false, true} {
						for _, replace := range []bool{false, true} {
							name := fmt.Sprintf("tA=%v/tB=%v/mask=%v/scmp=%v/acc=%v/rep=%v",
								tranA, tranB, useMask, scmp, accum, replace)
							t.Run(name, func(t *testing.T) {
								c, cd := newTestMatrix(t, rng, anr, bnc, 0.3)
								mask, stored, eff := newTestMask(t, rng, anr, bnc, 0.5, 0.7)
								desc := &Descriptor{}
								if tranA {
									desc.Transpose0()
								}
								if tranB {
									desc.Transpose1()
								}
								if scmp {
									desc.CompMask()
								}
								if replace {
									desc.ReplaceOutput()
								}
								acc := NoAccum[float64]()
								if accum {
									acc = plusF64()
								}
								var mk *Matrix[bool]
								if useMask {
									mk = mask
								}
								if err := MxM(c, mk, acc, s, a, b, desc); err != nil {
									t.Fatalf("MxM: %v", err)
								}
								want := oracleMxMWrite(cd, ad, ar, ac, bd, bnc,
									tranA, tranB, stored, eff, useMask, scmp, accum, replace)
								equalDense(t, denseOf(t, c), want, name)
							})
						}
					}
				}
			}
		}
	}
}

// TestMxMErrors exercises the documented Figure 2c error returns that are
// dynamically detectable in Go.
func TestMxMErrors(t *testing.T) {
	s := plusTimesF64(t)
	a, _ := NewMatrix[float64](3, 4)
	b, _ := NewMatrix[float64](4, 5)
	c, _ := NewMatrix[float64](3, 5)

	t.Run("nil output", func(t *testing.T) {
		err := MxM[float64, float64, float64, bool](nil, nil, NoAccum[float64](), s, a, b, nil)
		if InfoOf(err) != UninitializedObject {
			t.Fatalf("got %v want UninitializedObject", err)
		}
	})
	t.Run("dimension mismatch inner", func(t *testing.T) {
		bad, _ := NewMatrix[float64](3, 5) // inner dim 3 != 4
		err := MxM(c, NoMask, NoAccum[float64](), s, a, bad, nil)
		if InfoOf(err) != DimensionMismatch {
			t.Fatalf("got %v want DimensionMismatch", err)
		}
	})
	t.Run("dimension mismatch output", func(t *testing.T) {
		badC, _ := NewMatrix[float64](2, 5)
		err := MxM(badC, NoMask, NoAccum[float64](), s, a, b, nil)
		if InfoOf(err) != DimensionMismatch {
			t.Fatalf("got %v want DimensionMismatch", err)
		}
	})
	t.Run("mask dimension mismatch", func(t *testing.T) {
		mk, _ := NewMatrix[bool](3, 4)
		err := MxM(c, mk, NoAccum[float64](), s, a, b, nil)
		if InfoOf(err) != DimensionMismatch {
			t.Fatalf("got %v want DimensionMismatch", err)
		}
	})
	t.Run("uninitialized semiring", func(t *testing.T) {
		err := MxM(c, NoMask, NoAccum[float64](), Semiring[float64, float64, float64]{}, a, b, nil)
		if InfoOf(err) != UninitializedObject {
			t.Fatalf("got %v want UninitializedObject", err)
		}
	})
	t.Run("freed input", func(t *testing.T) {
		f, _ := NewMatrix[float64](4, 5)
		if err := f.Free(); err != nil {
			t.Fatalf("Free: %v", err)
		}
		err := MxM(c, NoMask, NoAccum[float64](), s, a, f, nil)
		if InfoOf(err) != UninitializedObject {
			t.Fatalf("got %v want UninitializedObject", err)
		}
	})
	t.Run("API errors leave output untouched", func(t *testing.T) {
		if err := c.SetElement(7, 1, 1); err != nil {
			t.Fatalf("SetElement: %v", err)
		}
		bad, _ := NewMatrix[float64](9, 9)
		_ = MxM(c, NoMask, NoAccum[float64](), s, a, bad, nil)
		v, err := c.ExtractElement(1, 1)
		if err != nil || v != 7 {
			t.Fatalf("output modified by failed call: v=%v err=%v", v, err)
		}
	})
}

// TestMxMAliasing verifies output aliasing an input is safe (kernels build
// fresh storage before the write-back).
func TestMxMAliasing(t *testing.T) {
	s := plusTimesF64(t)
	a, _ := NewMatrix[float64](3, 3)
	if err := a.Build([]int{0, 1, 2}, []int{1, 2, 0}, []float64{1, 1, 1}, NoAccum[float64]()); err != nil {
		t.Fatalf("Build: %v", err)
	}
	// a is a cyclic permutation; a*a should be the square of the cycle.
	if err := MxM(a, NoMask, NoAccum[float64](), s, a, a, nil); err != nil {
		t.Fatalf("MxM aliased: %v", err)
	}
	want := dmat{{0, 2}: 1, {1, 0}: 1, {2, 1}: 1}
	equalDense(t, denseOf(t, a), want, "aliased square")
}

// TestMxMMaskedTransposeWriteBack covers the two write-backs of the
// mask-consuming kernels on C⟨L⟩ = L ⊕.⊗ Lᵀ, the triangle-counting shape the
// dot kernel is selected for. (1) Everything aliased — C, mask, A and B are
// one object, Transpose1 + Replace, no accumulator: the kernel's T ⊆ M is
// adopted as C, so T must be fresh storage and not a view of the operand it
// replaces. (2) With an accumulator and without Replace the result is not
// T: entries of C outside the mask survive and those inside accumulate, so
// the write-back must still run the accumulate/mask-merge pipeline.
func TestMxMMaskedTransposeWriteBack(t *testing.T) {
	s := plusTimesF64(t)
	const n = 9
	ld := dmat{}
	var is, js []int
	var vs []float64
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if (i+2*j)%4 == 3 {
				continue
			}
			v := float64(1 + (i*5+j*3)%7)
			is, js, vs = append(is, i), append(js, j), append(vs, v)
			ld[key{i, j}] = v
		}
	}
	stored := map[key]bool{}
	for k := range ld {
		stored[k] = true
	}
	newL := func() *Matrix[float64] {
		l, _ := NewMatrix[float64](n, n)
		if err := l.Build(is, js, vs, NoAccum[float64]()); err != nil {
			t.Fatalf("Build: %v", err)
		}
		return l
	}
	t.Run("aliased/replace", func(t *testing.T) {
		l := newL()
		if err := MxM(l, l, NoAccum[float64](), s, l, l, Desc().Transpose1().ReplaceOutput()); err != nil {
			t.Fatalf("MxM: %v", err)
		}
		want := oracleMxMWrite(ld, ld, n, n, ld, n, false, true, stored, stored, true, false, false, true)
		equalDense(t, denseOf(t, l), want, "aliased masked A·Aᵀ")
	})
	t.Run("accum/no-replace", func(t *testing.T) {
		l := newL()
		rng := rand.New(rand.NewSource(7))
		c, cd := newTestMatrix(t, rng, n, n, 0.4)
		if err := MxM(c, l, plusF64(), s, l, l, Desc().Transpose1()); err != nil {
			t.Fatalf("MxM: %v", err)
		}
		want := oracleMxMWrite(cd, ld, n, n, ld, n, false, true, stored, stored, true, false, true, false)
		equalDense(t, denseOf(t, c), want, "accumulated masked A·Aᵀ")
		outside := 0
		for k := range cd {
			if !stored[k] {
				outside++
			}
		}
		if outside == 0 {
			t.Fatal("fixture has no C entry outside the mask; the case checks nothing")
		}
	})
}

// TestMxVAgainstMxM cross-checks MxV and VxM (both kernel paths) against
// MxM on a 1-column / 1-row reshape.
func TestMxVAgainstMxM(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := plusTimesF64(t)
	a, _ := newTestMatrix(t, rng, 8, 6, 0.4)

	u, _ := NewVector[float64](6)
	var uIdx []int
	var uVal []float64
	for j := 0; j < 6; j++ {
		if rng.Float64() < 0.5 {
			uIdx = append(uIdx, j)
			uVal = append(uVal, float64(rng.Intn(5)+1))
		}
	}
	if err := u.Build(uIdx, uVal, NoAccum[float64]()); err != nil {
		t.Fatalf("Build u: %v", err)
	}

	w, _ := NewVector[float64](8)
	if err := MxV(w, NoMaskV, NoAccum[float64](), s, a, u, nil); err != nil {
		t.Fatalf("MxV: %v", err)
	}

	// Oracle via matrix product against a 6x1 matrix.
	um, _ := NewMatrix[float64](6, 1)
	js := make([]int, len(uIdx))
	if err := um.Build(uIdx, js, uVal, NoAccum[float64]()); err != nil {
		t.Fatalf("Build um: %v", err)
	}
	cm, _ := NewMatrix[float64](8, 1)
	if err := MxM(cm, NoMask, NoAccum[float64](), s, a, um, nil); err != nil {
		t.Fatalf("MxM: %v", err)
	}
	wantIs, _, wantVs, _ := cm.ExtractTuples()
	gotIs, gotVs, _ := w.ExtractTuples()
	if len(gotIs) != len(wantIs) {
		t.Fatalf("nvals got %d want %d", len(gotIs), len(wantIs))
	}
	for k := range gotIs {
		if gotIs[k] != wantIs[k] || gotVs[k] != wantVs[k] {
			t.Errorf("entry %d: got (%d,%v) want (%d,%v)", k, gotIs[k], gotVs[k], wantIs[k], wantVs[k])
		}
	}

	// VxM with uᵀ A should equal Aᵀ u = MxV with transpose descriptor.
	w2, _ := NewVector[float64](8)
	u8, _ := NewVector[float64](8)
	var u8Idx []int
	var u8Val []float64
	for j := 0; j < 8; j++ {
		if rng.Float64() < 0.5 {
			u8Idx = append(u8Idx, j)
			u8Val = append(u8Val, float64(rng.Intn(5)+1))
		}
	}
	if err := u8.Build(u8Idx, u8Val, NoAccum[float64]()); err != nil {
		t.Fatalf("Build u8: %v", err)
	}
	wv, _ := NewVector[float64](6)
	if err := VxM(wv, NoMaskV, NoAccum[float64](), s, u8, a, nil); err != nil {
		t.Fatalf("VxM: %v", err)
	}
	wm, _ := NewVector[float64](6)
	if err := MxV(wm, NoMaskV, NoAccum[float64](), s, a, u8, Desc().Transpose0()); err != nil {
		t.Fatalf("MxV tran: %v", err)
	}
	_ = w2
	vIdx, vVal, _ := wv.ExtractTuples()
	mIdx, mVal, _ := wm.ExtractTuples()
	if len(vIdx) != len(mIdx) {
		t.Fatalf("VxM vs MxVᵀ nvals: %d vs %d", len(vIdx), len(mIdx))
	}
	for k := range vIdx {
		if vIdx[k] != mIdx[k] || vVal[k] != mVal[k] {
			t.Errorf("entry %d: VxM (%d,%v) vs MxVᵀ (%d,%v)", k, vIdx[k], vVal[k], mIdx[k], mVal[k])
		}
	}
}

// TestMxVMasked checks kernel-level mask handling in both the dot and push
// paths, including complemented masks and replace/merge modes.
func TestMxVMasked(t *testing.T) {
	s := plusTimesF64(t)
	a, _ := NewMatrix[float64](4, 4)
	// Path graph 0->1->2->3 plus a self edge at 0.
	if err := a.Build([]int{0, 0, 1, 2}, []int{0, 1, 2, 3}, []float64{1, 1, 1, 1}, NoAccum[float64]()); err != nil {
		t.Fatalf("Build: %v", err)
	}
	u, _ := NewVector[float64](4)
	for i := 0; i < 4; i++ {
		if err := u.SetElement(1, i); err != nil {
			t.Fatalf("SetElement: %v", err)
		}
	}
	mask, _ := NewVector[bool](4)
	_ = mask.SetElement(true, 0)
	_ = mask.SetElement(false, 1) // stored but false: not in effective mask
	_ = mask.SetElement(true, 2)

	for _, tran := range []bool{false, true} {
		for _, scmp := range []bool{false, true} {
			for _, replace := range []bool{false, true} {
				w, _ := NewVector[float64](4)
				_ = w.SetElement(100, 3) // pre-existing entry outside/inside mask
				desc := &Descriptor{}
				if tran {
					desc.Transpose0()
				}
				if scmp {
					desc.CompMask()
				}
				if replace {
					desc.ReplaceOutput()
				}
				if err := MxV(w, mask, NoAccum[float64](), s, a, u, desc); err != nil {
					t.Fatalf("MxV: %v", err)
				}
				// Dense oracle.
				av := [4][4]float64{}
				ah := [4][4]bool{}
				for _, e := range [][3]int{{0, 0, 1}, {0, 1, 1}, {1, 2, 1}, {2, 3, 1}} {
					av[e[0]][e[1]] = float64(e[2])
					ah[e[0]][e[1]] = true
				}
				want := map[int]float64{}
				for i := 0; i < 4; i++ {
					sum, has := 0.0, false
					for k := 0; k < 4; k++ {
						x, ok := av[i][k], ah[i][k]
						if tran {
							x, ok = av[k][i], ah[k][i]
						}
						if ok {
							sum += x
							has = true
						}
					}
					inMask := map[int]bool{0: true, 2: true}[i]
					if scmp {
						inMask = !map[int]bool{0: true, 1: true, 2: true}[i] // structure complement
					}
					if inMask {
						if has {
							want[i] = sum
						}
					} else if !replace && i == 3 {
						want[i] = 100
					}
				}
				got := map[int]float64{}
				idx, val, _ := w.ExtractTuples()
				for k := range idx {
					got[idx[k]] = val[k]
				}
				if len(got) != len(want) {
					t.Fatalf("tran=%v scmp=%v rep=%v: got %v want %v", tran, scmp, replace, got, want)
				}
				for i, v := range want {
					if got[i] != v {
						t.Errorf("tran=%v scmp=%v rep=%v: w[%d] got %v want %v", tran, scmp, replace, i, got[i], v)
					}
				}
			}
		}
	}
}
