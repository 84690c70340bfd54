package core

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"
)

// TestMatrixProgramsUnderPoisonedShelves runs random matrix programs
// against the dense model with junk on every shelf. Before the program and
// after each step churnMatShelves writes −1 over the int arrays, NaN over
// the float64 ones and true over the bool ones the pool holds, so a kernel
// that draws an array uncleared and leaves a position it keeps unwritten —
// or relies on a zeroed draw — reads junk, and the model comparison after
// the step shows it. The steps reach the pooled matrix kernels: the
// mask-shaped product (spgemmMaskShaped) and the dot product
// (SpGEMMDotMasked) under a valued mask whose stored zeros make core
// resolve an effective pattern of its own (resolveMatMask's EffPtr),
// SelectCSR under a user predicate, the masked write-back (MaskMergeCSR,
// after WriteCSR's accumulate), and the four matrix assigns, which write
// their rows into raw arena room. Both modes, at 1, 2 and 4 workers. The
// collector is off: the value shelves are weak, and a collection would
// empty them of their junk.
func TestMatrixProgramsUnderPoisonedShelves(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	matLifetimeModes(t, func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			runPoisonedMatrixProgram(t, seed, 24)
		}
	})
}

// poisonDim is the side of the program's matrices.
const poisonDim = 12

// runPoisonedMatrixProgram runs one random program of the given steps.
// Its four matrices are outputs, operands and masks in turn; the products
// multiply two fixed operands, so that every value stays a small integer
// and every sum is exact in any order.
func runPoisonedMatrixProgram(t *testing.T, seed int64, steps int) {
	t.Helper()
	const n = poisonDim
	rng := rand.New(rand.NewSource(seed))
	a, am := newTestMatrix(t, rng, n, n, 0.5)
	b, bm := newTestMatrix(t, rng, n, n, 0.5)
	mats, models := make([]*Matrix[float64], 4), make([]dmat, 4)
	for k := range mats {
		mats[k], models[k] = poisonedOperand(t, rng, n, n, 0.4)
	}
	plus, s := plusF64(), plusTimesF64(t)
	keep := IndexUnaryOp[float64, bool]{Name: "keep", F: func(v float64, i, j int) bool { return (i+2*j)%3 != 0 || v > 1 }}
	churnMatShelves()

	for step := 0; step < steps; step++ {
		op := rng.Intn(8)
		ci, ai, bi, mi := rng.Intn(4), rng.Intn(4), rng.Intn(4), rng.Intn(4)
		scmp, accum, replace := rng.Intn(3) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
		desc := &Descriptor{}
		if scmp {
			desc.CompMask()
		}
		if replace {
			desc.ReplaceOutput()
		}
		acc := NoAccum[float64]()
		if accum {
			acc = plus
		}
		var mask *Matrix[float64]
		var mm dmat
		switch {
		case op <= 1:
			// The products run under a sparse mask of their own: unmasked
			// they reach no pooled kernel, and under a dense mask the dot
			// kernel loses to Gustavson's (sparse.DotMaskedWins).
			mask, mm = poisonedOperand(t, rng, n, n, 0.3)
		case rng.Intn(4) != 0:
			mask, mm = mats[mi], models[mi]
		}
		useMask := mask != nil
		stored, eff := map[key]bool{}, map[key]bool{}
		for k, v := range mm {
			stored[k], eff[k] = true, v != 0
		}
		c, cm := mats[ci], models[ci]
		rows, cols := someOf(rng, n), someOf(rng, n)
		x := float64(rng.Intn(3))
		label := fmt.Sprintf("seed %d step %d op %d (mask %v scmp %v accum %v replace %v)", seed, step, op, useMask, scmp, accum, replace)
		var err error
		switch op {
		case 0, 1: // masked product: mask-shaped, or the dot kernel on Bᵀ
			tran1 := op == 1
			if tran1 {
				desc.Transpose1()
			}
			err = MxM(c, mask, acc, s, a, b, desc)
			models[ci] = oracleMxMWrite(cm, am, n, n, bm, n, false, tran1, stored, eff, useMask, scmp, accum, replace)
		case 2: // select under a user predicate
			err = SelectM(c, mask, acc, keep, mats[ai], desc)
			tm := dmat{}
			for k, v := range models[ai] {
				if keep.F(v, k.i, k.j) {
					tm[k] = v
				}
			}
			models[ci] = oracleWrite(cm, tm, n, n, stored, eff, useMask, scmp, accum, replace)
		case 3: // eWiseAdd, accumulated and masked
			err = EWiseAddM(c, mask, acc, plus, mats[ai], mats[bi], desc)
			tm := dmat{}
			for k, v := range models[ai] {
				tm[k] = v
			}
			for k, v := range models[bi] {
				tm[k] += v
			}
			models[ci] = oracleWrite(cm, tm, n, n, stored, eff, useMask, scmp, accum, replace)
		case 4: // a region from a fresh matrix
			sub, subm := poisonedOperand(t, rng, len(rows), len(cols), 0.6)
			err = AssignMatrix(c, mask, acc, sub, rows, cols, desc)
			z := assignModel(cm, rows, cols, accum, func(r, q int) (float64, bool) { v, ok := subm[key{r, q}]; return v, ok })
			models[ci] = oracleWrite(cm, z, n, n, stored, eff, useMask, scmp, false, replace)
		case 5: // a region from a scalar
			err = AssignMatrixScalar(c, mask, acc, x, rows, cols, desc)
			z := assignModel(cm, rows, cols, accum, func(int, int) (float64, bool) { return x, true })
			models[ci] = oracleWrite(cm, z, n, n, stored, eff, useMask, scmp, false, replace)
		case 6, 7: // one row or one column, under a vector mask
			vmask, vm := poisonedVector(t, rng, n, 0.5)
			if rng.Intn(3) == 0 {
				vmask = nil
			}
			allows := func(p int) bool {
				v, ok := vm[p]
				switch {
				case vmask == nil:
					return true
				case scmp:
					return !ok
				}
				return ok && v != 0
			}
			line := rng.Intn(n)
			if op == 6 {
				u, um := poisonedVector(t, rng, len(cols), 0.6)
				err = AssignRow(c, vmask, acc, u, line, cols, desc)
				z := assignModel(cm, []int{line}, cols, accum, func(_, q int) (float64, bool) { v, ok := um[q]; return v, ok })
				models[ci] = lineWrite(cm, z, func(k key) bool { return k.i == line }, func(k key) bool { return allows(k.j) }, replace)
			} else {
				u, um := poisonedVector(t, rng, len(rows), 0.6)
				err = AssignCol(c, vmask, acc, u, rows, line, desc)
				z := assignModel(cm, rows, []int{line}, accum, func(r, _ int) (float64, bool) { v, ok := um[r]; return v, ok })
				models[ci] = lineWrite(cm, z, func(k key) bool { return k.j == line }, func(k key) bool { return allows(k.i) }, replace)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for k, m := range mats {
			equalDense(t, denseOf(t, m), models[k], fmt.Sprintf("%s: matrix %d", label, k))
		}
		if t.Failed() {
			t.FailNow()
		}
		churnMatShelves()
	}
}

// poisonedOperand builds an nr×nc matrix of fill p and its model, with
// values 0…3: its stored zeros make it a mask whose effective pattern is
// not its structure.
func poisonedOperand(t *testing.T, rng *rand.Rand, nr, nc int, p float64) (*Matrix[float64], dmat) {
	t.Helper()
	m, err := NewMatrix[float64](nr, nc)
	if err != nil {
		t.Fatal(err)
	}
	d := dmat{}
	var is, js []int
	var vs []float64
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Float64() < p {
				v := float64(rng.Intn(4))
				d[key{i, j}] = v
				is, js, vs = append(is, i), append(js, j), append(vs, v)
			}
		}
	}
	if err := m.Build(is, js, vs, NoAccum[float64]()); err != nil {
		t.Fatal(err)
	}
	return m, d
}

// poisonedVector is poisonedOperand for a vector of size n.
func poisonedVector(t *testing.T, rng *rand.Rand, n int, p float64) (*Vector[float64], map[int]float64) {
	t.Helper()
	var is []int
	var vs []float64
	model := map[int]float64{}
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			model[i] = float64(rng.Intn(4))
			is, vs = append(is, i), append(vs, model[i])
		}
	}
	v, err := NewVector[float64](n)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Build(is, vs, NoAccum[float64]()); err != nil {
		t.Fatal(err)
	}
	return v, model
}

// someOf is a shuffled list of distinct indices below n, at least one.
func someOf(rng *rand.Rand, n int) []int {
	return rng.Perm(n)[:1+rng.Intn(n)]
}

// assignModel is the Z of an assign into the region rows × cols of c:
// src(r, q) is the source's entry for target (rows[r], cols[q]), which
// replaces c's there, or is accumulated into it; where the source has
// none, c's entry goes without an accumulator and stays with one.
func assignModel(c dmat, rows, cols []int, accum bool, src func(r, q int) (float64, bool)) dmat {
	z := dmat{}
	for k, v := range c {
		z[k] = v
	}
	for r, i := range rows {
		for q, j := range cols {
			k := key{i, j}
			v, ok := src(r, q)
			cv, has := c[k]
			switch {
			case ok && accum && has:
				z[k] = cv + v
			case ok:
				z[k] = v
			case !accum:
				delete(z, k)
			}
		}
	}
	return z
}

// lineWrite is the write-back of a row or column assign: on the line, z
// where the mask allows and c elsewhere (nothing with replace); off it, c.
func lineWrite(c, z dmat, onLine, allows func(key) bool, replace bool) dmat {
	out := dmat{}
	for k, v := range c {
		if !onLine(k) || !allows(k) && !replace {
			out[k] = v
		}
	}
	for k, v := range z {
		if onLine(k) && allows(k) {
			out[k] = v
		}
	}
	return out
}
