package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"graphblas/internal/sparse"
)

// vecOracleWrite applies the accumulate-then-mask pipeline to dense vector
// models.
func vecOracleWrite(c, t map[int]float64, n int, stored, eff map[int]bool, useMask, scmp, accum, replace bool) map[int]float64 {
	z := map[int]float64{}
	if accum {
		for k, v := range c {
			z[k] = v
		}
		for k, v := range t {
			if cv, ok := z[k]; ok {
				z[k] = cv + v
			} else {
				z[k] = v
			}
		}
	} else {
		z = t
	}
	out := map[int]float64{}
	allow := func(i int) bool {
		if !useMask {
			return true
		}
		if scmp {
			return !stored[i]
		}
		return eff[i]
	}
	for i := 0; i < n; i++ {
		if allow(i) {
			if v, ok := z[i]; ok {
				out[i] = v
			}
		} else if !replace {
			if v, ok := c[i]; ok {
				out[i] = v
			}
		}
	}
	return out
}

// randVecModel builds a vector plus its dense model.
func randVecModel(t *testing.T, rng *rand.Rand, n int, p float64) (*Vector[float64], map[int]float64) {
	t.Helper()
	v, err := NewVector[float64](n)
	if err != nil {
		t.Fatal(err)
	}
	model := map[int]float64{}
	var idx []int
	var val []float64
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			x := float64(rng.Intn(9) + 1)
			idx = append(idx, i)
			val = append(val, x)
			model[i] = x
		}
	}
	if err := v.Build(idx, val, NoAccum[float64]()); err != nil {
		t.Fatal(err)
	}
	return v, model
}

// randVecMask builds a bool mask vector plus stored/effective models.
func randVecMask(t *testing.T, rng *rand.Rand, n int, pStored, pTrue float64) (*Vector[bool], map[int]bool, map[int]bool) {
	t.Helper()
	v, err := NewVector[bool](n)
	if err != nil {
		t.Fatal(err)
	}
	stored := map[int]bool{}
	eff := map[int]bool{}
	var idx []int
	var val []bool
	for i := 0; i < n; i++ {
		if rng.Float64() < pStored {
			b := rng.Float64() < pTrue
			stored[i] = true
			if b {
				eff[i] = true
			}
			idx = append(idx, i)
			val = append(val, b)
		}
	}
	if err := v.Build(idx, val, NoAccum[bool]()); err != nil {
		t.Fatal(err)
	}
	return v, stored, eff
}

// TestSweep_MxVAndVxM runs both matrix-vector products through the full
// write pipeline, both kernel directions, against the dense oracle.
func TestSweep_MxVAndVxM(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	const n = 12
	a, ad := newTestMatrix(t, rng, n, n, 0.3)
	u, ud := randVecModel(t, rng, n, 0.5)
	s := plusTimesF64(t)
	// Dense product models.
	mxvT := map[int]float64{}
	vxmT := map[int]float64{}
	for i := 0; i < n; i++ {
		sm, has := 0.0, false
		sv, hasv := 0.0, false
		for k := 0; k < n; k++ {
			if av, ok := ad[key{i, k}]; ok {
				if uv, ok := ud[k]; ok {
					sm += av * uv
					has = true
				}
			}
			if av, ok := ad[key{k, i}]; ok {
				if uv, ok := ud[k]; ok {
					sv += av * uv
					hasv = true
				}
			}
		}
		if has {
			mxvT[i] = sm
		}
		if hasv {
			vxmT[i] = sv
		}
	}
	sweepCases(func(useMask, scmp, accum, replace bool, name string) {
		t.Run("mxv/"+name, func(t *testing.T) {
			w, wd := randVecModel(t, rng, n, 0.3)
			mask, stored, eff := randVecMask(t, rng, n, 0.5, 0.7)
			acc := NoAccum[float64]()
			if accum {
				acc = plusF64()
			}
			var mk *Vector[bool]
			if useMask {
				mk = mask
			}
			if err := MxV(w, mk, acc, s, a, u, sweepDesc(scmp, replace)); err != nil {
				t.Fatal(err)
			}
			want := vecOracleWrite(wd, mxvT, n, stored, eff, useMask, scmp, accum, replace)
			got := vecModel(t, w)
			if len(got) != len(want) {
				t.Fatalf("%s: got %v want %v", name, got, want)
			}
			for i, v := range want {
				if got[i] != v {
					t.Fatalf("%s: [%d] got %v want %v", name, i, got[i], v)
				}
			}
		})
		t.Run("vxm/"+name, func(t *testing.T) {
			w, wd := randVecModel(t, rng, n, 0.3)
			mask, stored, eff := randVecMask(t, rng, n, 0.5, 0.7)
			acc := NoAccum[float64]()
			if accum {
				acc = plusF64()
			}
			var mk *Vector[bool]
			if useMask {
				mk = mask
			}
			if err := VxM(w, mk, acc, s, u, a, sweepDesc(scmp, replace)); err != nil {
				t.Fatal(err)
			}
			want := vecOracleWrite(wd, vxmT, n, stored, eff, useMask, scmp, accum, replace)
			got := vecModel(t, w)
			if len(got) != len(want) {
				t.Fatalf("%s: got %v want %v", name, got, want)
			}
			for i, v := range want {
				if got[i] != v {
					t.Fatalf("%s: [%d] got %v want %v", name, i, got[i], v)
				}
			}
		})
	})
}

// TestSerializeAllDomains round-trips every serializable domain.
func TestSerializeAllDomains(t *testing.T) {
	roundTrip := func(t *testing.T, build func() (any, error)) {
		t.Helper()
		if _, err := build(); err != nil {
			t.Fatal(err)
		}
	}
	_ = roundTrip
	check := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	testDomain(t, "int8", int8(-7), check)
	testDomain(t, "int16", int16(-300), check)
	testDomain(t, "int32", int32(70000), check)
	testDomain(t, "int64", int64(1<<40), check)
	testDomain(t, "int", int(-12345), check)
	testDomain(t, "uint8", uint8(200), check)
	testDomain(t, "uint16", uint16(60000), check)
	testDomain(t, "uint32", uint32(4e9), check)
	testDomain(t, "uint64", uint64(1)<<60, check)
	testDomain(t, "uint", uint(987654321), check)
	testDomain(t, "float32", float32(3.25), check)
	testDomain(t, "float64", float64(-2.5e-10), check)
}

func testDomain[D comparable](t *testing.T, name string, sample D, check func(*testing.T, error)) {
	t.Run(name, func(t *testing.T) {
		m, err := NewMatrix[D](2, 2)
		check(t, err)
		check(t, m.SetElement(sample, 1, 0))
		var buf bytes.Buffer
		check(t, MatrixSerialize(m, &buf))
		back, err := MatrixDeserialize[D](&buf)
		check(t, err)
		v, err := back.ExtractElement(1, 0)
		check(t, err)
		if v != sample {
			t.Fatalf("round trip %v -> %v", sample, v)
		}
	})
}

// The vector half of the Figure 2 grid (see gridCases in sweep_test.go): the
// operations whose written line is a vector — a vector output, or one row or
// column of a matrix output under a vector mask.

// newValueMaskV is newValueMask for vectors.
func newValueMaskV(t *testing.T, rng *rand.Rand, n int) (*Vector[float64], map[int]bool, map[int]bool) {
	t.Helper()
	model, stored, eff := map[int]float64{}, map[int]bool{}, map[int]bool{}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			stored[i], model[i] = true, 0
			if rng.Float64() < 0.7 {
				eff[i], model[i] = true, 1
			}
		}
	}
	return vecOf(t, n, model), stored, eff
}

func structureOfVec(d map[int]float64) map[int]bool {
	s := map[int]bool{}
	for i := range d {
		s[i] = true
	}
	return s
}

// lineOf reads row (or column) at of a dense matrix model.
func lineOf(d dmat, at int, row bool) map[int]float64 {
	l := map[int]float64{}
	for k, v := range d {
		switch {
		case row && k.i == at:
			l[k.j] = v
		case !row && k.j == at:
			l[k.i] = v
		}
	}
	return l
}

// assignLineModel is the Z stage of a row or column assign on the line's
// prior content c: inside the index list the input's entry lands (summed
// with c under the accumulator; with none, a position the input lacks is
// deleted), outside it c stays.
func assignLineModel(c, u map[int]float64, indices []int, accum bool) map[int]float64 {
	z := map[int]float64{}
	for i, v := range c {
		z[i] = v
	}
	for p, target := range indices {
		uv, has := u[p]
		cv, had := c[target]
		switch {
		case has && accum && had:
			z[target] = cv + uv
		case has:
			z[target] = uv
		case !accum:
			delete(z, target)
		}
	}
	return z
}

type vecGridOp struct {
	name    string
	tran0   bool
	aliases []string
	// run makes the call for one grid case and returns the line it wrote
	// with the dense model's prediction for that line.
	run func(t *testing.T, rng *rand.Rand, g gridCase) (got, want map[int]float64)
}

// vectorOutput is the shared shape of the operations with a matrix input
// and a vector output: result models T from the input as the operation sees
// it, size is the output's size.
func vectorOutput(size int, result func(a dmat) map[int]float64,
	call func(w, mask *Vector[float64], acc BinaryOp[float64, float64, float64], a *Matrix[float64], d *Descriptor) error,
) func(t *testing.T, rng *rand.Rand, g gridCase) (got, want map[int]float64) {
	return func(t *testing.T, rng *rand.Rand, g gridCase) (got, want map[int]float64) {
		a, ad := newTestMatrix(t, rng, gridN, gridN, 0.5)
		w, wd := randVecModel(t, rng, size, 0.4)
		mask, stored, eff := newValueMaskV(t, rng, size)
		if g.alias == gridMaskIsOut {
			mask, stored, eff = w, structureOfVec(wd), structureOfVec(wd)
		}
		if !g.useMask {
			mask = nil
		}
		seen := ad
		if g.tran0 {
			seen = transposeDense(ad)
		}
		if err := call(w, mask, g.accumOp(), a, g.desc()); err != nil {
			t.Fatal(err)
		}
		equalDense(t, denseOf(t, a), ad, g.name+"/input intact")
		return vecModel(t, w), vecOracleWrite(wd, result(seen), size, stored, eff, g.useMask, g.scmp, g.accum, g.replace)
	}
}

// lineAssign is the shared shape of AssignRow and AssignCol: the written
// line is row or column gridAt of the matrix output, and the rest of the
// matrix must come through untouched.
func lineAssign(row bool,
	call func(c *Matrix[float64], mask *Vector[float64], acc BinaryOp[float64, float64, float64], u *Vector[float64], indices []int, d *Descriptor) error,
) func(t *testing.T, rng *rand.Rand, g gridCase) (got, want map[int]float64) {
	return func(t *testing.T, rng *rand.Rand, g gridCase) (got, want map[int]float64) {
		indices := []int{3, 0, 2}
		c, cd := newTestMatrix(t, rng, gridN, gridN, 0.5)
		u, ud := randVecModel(t, rng, len(indices), 0.6)
		mask, stored, eff := newValueMaskV(t, rng, gridN)
		if !g.useMask {
			mask = nil
		}
		if err := call(c, mask, g.accumOp(), u, indices, g.desc()); err != nil {
			t.Fatal(err)
		}
		after := denseOf(t, c)
		for k, v := range cd {
			if (row && k.i != gridAt) || (!row && k.j != gridAt) {
				if after[k] != v {
					t.Errorf("%s: entry (%d,%d) outside the assigned line changed: %v, was %v", g.name, k.i, k.j, after[k], v)
				}
			}
		}
		prior := lineOf(cd, gridAt, row)
		// The accumulator is already folded into Z, so the oracle only masks.
		z := assignLineModel(prior, ud, indices, g.accum)
		return lineOf(after, gridAt, row), vecOracleWrite(prior, z, gridN, stored, eff, g.useMask, g.scmp, false, g.replace)
	}
}

// scatterProduct is the shape of the two spellings of w = Aᵀ ⊕.⊗ u, VxM and
// MxV with INP0 transposed, on a frontier the direction rule
// (sparse.PullWins) sends one way. A is 96×64 and half full, about 3 000
// edges; fill is the share of its rows u holds, cached says whether a
// transposed read has left Aᵀ on the matrix, and pull is the direction that
// must run, checked on the engine's counter: an eighth of the rows stays
// under the rule's floor and is pushed, every row with nothing cached pays
// for the build and is pulled, nine tenths pull over a transpose in hand.
func scatterProduct(mxv bool, fill float64, cached, pull bool) func(t *testing.T, rng *rand.Rand, g gridCase) (got, want map[int]float64) {
	const nr, nc = 96, 64
	return func(t *testing.T, rng *rand.Rand, g gridCase) (got, want map[int]float64) {
		a, ad := newTestMatrix(t, rng, nr, nc, 0.5)
		u, ud := randVecModel(t, rng, nr, fill)
		w, wd := randVecModel(t, rng, nc, 0.4)
		mask, stored, eff := newValueMaskV(t, rng, nc)
		if g.alias == gridMaskIsOut {
			mask, stored, eff = w, structureOfVec(wd), structureOfVec(wd)
		}
		if !g.useMask {
			mask = nil
		}
		if cached {
			a.transposed()
		}
		product := map[int]float64{}
		for k, v := range ad {
			if uv, ok := ud[k.i]; ok {
				product[k.j] += uv * v
			}
		}
		pulled, pushed := mxvPull.Value(), mxvPush.Value()
		var err error
		if mxv {
			err = MxV(w, mask, g.accumOp(), plusTimesF64(t), a, u, g.desc().Transpose0())
		} else {
			err = VxM(w, mask, g.accumOp(), plusTimesF64(t), u, a, g.desc())
		}
		if err != nil {
			t.Fatal(err)
		}
		got = vecModel(t, w)
		if dPull, dPush := mxvPull.Value()-pulled, mxvPush.Value()-pushed; (dPull == 1) != pull || dPull+dPush != 1 {
			t.Errorf("%s: ran %d pulls and %d pushes, want one %s", g.name, dPull, dPush, map[bool]string{true: "pull", false: "push"}[pull])
		}
		equalDense(t, denseOf(t, a), ad, g.name+"/input intact")
		return got, vecOracleWrite(wd, product, nc, stored, eff, g.useMask, g.scmp, g.accum, g.replace)
	}
}

// fullVectors is the shape of the rows that put the vector kernels' array
// paths (kernels_vec.go) under the grid: the inputs u and v and the output's
// prior content w over gridN positions, each full when full names it and
// about half full otherwise; result models T from u's and v's models. With
// the out=in0 alias w is u, so its prior content is u's.
func fullVectors(full string, result func(u, v map[int]float64) map[int]float64,
	call func(w, mask *Vector[float64], acc BinaryOp[float64, float64, float64], u, v *Vector[float64], d *Descriptor) error,
) func(t *testing.T, rng *rand.Rand, g gridCase) (got, want map[int]float64) {
	fill := func(name string) float64 {
		if strings.Contains(full, name) {
			return 1
		}
		return 0.5
	}
	return func(t *testing.T, rng *rand.Rand, g gridCase) (got, want map[int]float64) {
		u, ud := randVecModel(t, rng, gridN, fill("u"))
		v, vd := randVecModel(t, rng, gridN, fill("v"))
		w, wd := randVecModel(t, rng, gridN, fill("w"))
		mask, stored, eff := newValueMaskV(t, rng, gridN)
		switch g.alias {
		case gridOutIsIn0:
			w, wd = u, ud
		case gridMaskIsOut:
			mask, stored, eff = w, structureOfVec(wd), structureOfVec(wd)
		}
		if !g.useMask {
			mask = nil
		}
		if err := call(w, mask, g.accumOp(), u, v, g.desc()); err != nil {
			t.Fatal(err)
		}
		got = vecModel(t, w)
		if g.alias != gridOutIsIn0 && !reflect.DeepEqual(vecModel(t, u), ud) {
			t.Errorf("%s: input u changed", g.name)
		}
		if !reflect.DeepEqual(vecModel(t, v), vd) {
			t.Errorf("%s: input v changed", g.name)
		}
		return got, vecOracleWrite(wd, result(ud, vd), gridN, stored, eff, g.useMask, g.scmp, g.accum, g.replace)
	}
}

// halfPlus is x/2 + y: an eWise operator under which swapped operands show.
func halfPlus() BinaryOp[float64, float64, float64] {
	return BinaryOp[float64, float64, float64]{Name: "halfplus", F: func(x, y float64) float64 { return x/2 + y }}
}

// ewiseAddFull, ewiseMultFull, assignFull and assignScalarFull are the four
// operations the full-vector rows run, with their T models.
func ewiseAddFull(full string) func(*testing.T, *rand.Rand, gridCase) (map[int]float64, map[int]float64) {
	return fullVectors(full, func(u, v map[int]float64) map[int]float64 {
		t := map[int]float64{}
		for i, x := range u {
			t[i] = x
		}
		for i, y := range v {
			if x, ok := u[i]; ok {
				t[i] = x/2 + y
			} else {
				t[i] = y
			}
		}
		return t
	}, func(w, mask *Vector[float64], acc BinaryOp[float64, float64, float64], u, v *Vector[float64], d *Descriptor) error {
		return EWiseAddV(w, mask, acc, halfPlus(), u, v, d)
	})
}

func ewiseMultFull(full string) func(*testing.T, *rand.Rand, gridCase) (map[int]float64, map[int]float64) {
	return fullVectors(full, func(u, v map[int]float64) map[int]float64 {
		t := map[int]float64{}
		for i, y := range v {
			if x, ok := u[i]; ok {
				t[i] = x/2 + y
			}
		}
		return t
	}, func(w, mask *Vector[float64], acc BinaryOp[float64, float64, float64], u, v *Vector[float64], d *Descriptor) error {
		return EWiseMultV(w, mask, acc, halfPlus(), u, v, d)
	})
}

func assignFull(full string) func(*testing.T, *rand.Rand, gridCase) (map[int]float64, map[int]float64) {
	return fullVectors(full, func(u, _ map[int]float64) map[int]float64 { return u },
		func(w, mask *Vector[float64], acc BinaryOp[float64, float64, float64], u, _ *Vector[float64], d *Descriptor) error {
			return AssignVector(w, mask, acc, u, All, d)
		})
}

func assignScalarFull(full string) func(*testing.T, *rand.Rand, gridCase) (map[int]float64, map[int]float64) {
	const x = 2.5
	return fullVectors(full, func(_, _ map[int]float64) map[int]float64 {
		t := map[int]float64{}
		for i := 0; i < gridN; i++ {
			t[i] = x
		}
		return t
	}, func(w, mask *Vector[float64], acc BinaryOp[float64, float64, float64], _, _ *Vector[float64], d *Descriptor) error {
		return AssignVectorScalar(w, mask, acc, x, All, d)
	})
}

const (
	gridN  = 5
	gridAt = 1 // the column extracted, the row or column assigned
)

var gridRows = []int{4, 1, 1, 0} // extract replicates

var vecGridOps = []vecGridOp{
	{"ExtractColVector", true, []string{gridMaskIsOut}, vectorOutput(len(gridRows),
		func(a dmat) map[int]float64 {
			t := map[int]float64{}
			for p, i := range gridRows {
				if v, ok := a[key{i, gridAt}]; ok {
					t[p] = v
				}
			}
			return t
		},
		func(w, mask *Vector[float64], acc BinaryOp[float64, float64, float64], a *Matrix[float64], d *Descriptor) error {
			return ExtractColVector(w, mask, acc, a, gridRows, gridAt, d)
		})},
	{"ReduceMatrixToVector", true, []string{gridMaskIsOut}, vectorOutput(gridN,
		func(a dmat) map[int]float64 {
			t := map[int]float64{}
			for k, v := range a {
				t[k.i] += v
			}
			return t
		},
		func(w, mask *Vector[float64], acc BinaryOp[float64, float64, float64], a *Matrix[float64], d *Descriptor) error {
			plus, err := NewMonoid(plusF64(), 0)
			if err != nil {
				return err
			}
			return ReduceMatrixToVector(w, mask, acc, plus, a, d)
		})},
	// The scatter product on both sides of the direction rule, in both
	// spellings; the write-back under every mask, accumulator and replace
	// setting must not depend on the kernel that produced T.
	{"VxM/sparse-frontier", false, []string{gridMaskIsOut}, scatterProduct(false, 0.125, false, false)},
	{"VxM/full-frontier", false, []string{gridMaskIsOut}, scatterProduct(false, 1, false, true)},
	{"VxM/dense-frontier-cached", false, []string{gridMaskIsOut}, scatterProduct(false, 0.9, true, true)},
	{"MxV+Transpose0/sparse-frontier", false, []string{gridMaskIsOut}, scatterProduct(true, 0.125, true, false)},
	{"MxV+Transpose0/full-frontier", false, []string{gridMaskIsOut}, scatterProduct(true, 1, false, true)},
	{"MxV+Transpose0/dense-frontier-cached", false, []string{gridMaskIsOut}, scatterProduct(true, 0.9, true, true)},
	// A row or column assign has no matrix input to transpose, and neither
	// its input nor its mask can be the matrix it writes.
	{"AssignRow", false, nil, lineAssign(true,
		func(c *Matrix[float64], mask *Vector[float64], acc BinaryOp[float64, float64, float64], u *Vector[float64], indices []int, d *Descriptor) error {
			return AssignRow(c, mask, acc, u, gridAt, indices, d)
		})},
	{"AssignCol", false, nil, lineAssign(false,
		func(c *Matrix[float64], mask *Vector[float64], acc BinaryOp[float64, float64, float64], u *Vector[float64], indices []int, d *Descriptor) error {
			return AssignCol(c, mask, acc, u, indices, gridAt, d)
		})},
	// Full operands on each side: the array paths of eWiseAdd, eWiseMult and
	// the GrB_ALL assigns, under every mask, accumulator and replace setting,
	// with the output doubling as an input or as its own mask.
	{"EWiseAddV/u-full", false, []string{gridOutIsIn0, gridMaskIsOut}, ewiseAddFull("u")},
	{"EWiseAddV/v-full", false, []string{gridOutIsIn0, gridMaskIsOut}, ewiseAddFull("v")},
	{"EWiseAddV/u-v-full", false, []string{gridOutIsIn0, gridMaskIsOut}, ewiseAddFull("u v")},
	{"EWiseMultV/u-full", false, []string{gridOutIsIn0, gridMaskIsOut}, ewiseMultFull("u")},
	{"EWiseMultV/v-full", false, []string{gridOutIsIn0, gridMaskIsOut}, ewiseMultFull("v")},
	{"EWiseMultV/u-v-full", false, []string{gridOutIsIn0, gridMaskIsOut}, ewiseMultFull("u v")},
	{"AssignVector/u-full", false, []string{gridOutIsIn0, gridMaskIsOut}, assignFull("u")},
	{"AssignVector/w-full", false, []string{gridMaskIsOut}, assignFull("w")},
	{"AssignVector/u-w-full", false, []string{gridMaskIsOut}, assignFull("u w")},
	{"AssignVectorScalar/w-full", false, []string{gridMaskIsOut}, assignScalarFull("w")},
	{"AssignVectorScalar/w-partial", false, []string{gridMaskIsOut}, assignScalarFull("")},
}

// TestSweep_Fig2GridVector runs every operation of vecGridOps through the
// grid.
func TestSweep_Fig2GridVector(t *testing.T) {
	for _, op := range vecGridOps {
		rng := rand.New(rand.NewSource(233))
		gridCases(op.tran0, false, op.aliases, func(g gridCase) {
			t.Run(op.name+"/"+g.name, func(t *testing.T) {
				got, want := op.run(t, rng, g)
				if len(got) != len(want) {
					t.Fatalf("got %v want %v", got, want)
				}
				for i, v := range want {
					if got[i] != v {
						t.Fatalf("[%d] got %v want %v (got %v want %v)", i, got[i], v, got, want)
					}
				}
			})
		})
	}
}

// TestFullAssignOutputNeverSharesU: over GrB_ALL the assign kernels take
// u's positions but values of their own — with and without an accumulator,
// from GrB_ALL or an explicit identity list — so no later write to the
// output (SetElement, RemoveElement, Clear, another assign) can reach u, and
// no write to u can reach the output, in either execution mode.
func TestFullAssignOutputNeverSharesU(t *testing.T) {
	const n = 16
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	for _, mode := range []Mode{Blocking, NonBlocking} {
		for _, indices := range [][]int{All, identity} {
			for _, accum := range []BinaryOp[float64, float64, float64]{NoAccum[float64](), plusF64()} {
				withMode(t, mode, func() {
					rng := rand.New(rand.NewSource(41))
					u, ud := randVecModel(t, rng, n, 1)
					w, _ := randVecModel(t, rng, n, 1)
					if err := AssignVector(w, NoMaskV, accum, u, indices, nil); err != nil {
						t.Fatal(err)
					}
					steps := []func() error{
						func() error { return w.SetElement(-7, 3) },
						func() error { return w.RemoveElement(5) },
						func() error { return AssignVectorScalar(w, NoMaskV, plusF64(), 100, All, nil) },
						w.Clear,
					}
					for k, step := range steps {
						if err := step(); err != nil {
							t.Fatal(err)
						}
						if got := vecModel(t, u); !reflect.DeepEqual(got, ud) {
							t.Fatalf("mode %v accum %v: write %d to the output changed u: %v, was %v", mode, accum.Defined(), k, got, ud)
						}
					}
					// And the other way round, from a fresh assign.
					if err := AssignVector(w, NoMaskV, accum, u, indices, nil); err != nil {
						t.Fatal(err)
					}
					wd := vecModel(t, w)
					if err := u.SetElement(-9, 2); err != nil {
						t.Fatal(err)
					}
					if err := u.RemoveElement(4); err != nil {
						t.Fatal(err)
					}
					if got := vecModel(t, w); !reflect.DeepEqual(got, wd) {
						t.Fatalf("mode %v accum %v: a write to u changed the output: %v, was %v", mode, accum.Defined(), got, wd)
					}
				})
			}
		}
	}
}

// TestSharedIdxWritesStayLocal: an output whose positions are an input's —
// an apply, an eWiseMult against a full operand, a Dup — shares the input's
// index list and owns its values, and no store's index list is written
// after it is built. So SetElement, RemoveElement, Resize (down, then up,
// then a write past the old end), Clear or Dup on the sharer leaves the
// input as it was, and the same writes to the input leave the sharer, in
// either execution mode.
func TestSharedIdxWritesStayLocal(t *testing.T) {
	const n = 16
	neg, err := NewUnaryOp("neg", func(x float64) float64 { return -x })
	if err != nil {
		t.Fatal(err)
	}
	times := PredefinedBinaryOp(sparse.OpTimes, "times", func(x, y float64) float64 { return x * y })
	sharers := map[string]func(full, part *Vector[float64]) (*Vector[float64], error){
		"ApplyV": func(full, _ *Vector[float64]) (*Vector[float64], error) {
			w, err := NewVector[float64](n)
			if err == nil {
				err = ApplyV(w, NoMaskV, NoAccum[float64](), neg, full, nil)
			}
			return w, err
		},
		"EWiseMultV": func(full, part *Vector[float64]) (*Vector[float64], error) {
			w, err := NewVector[float64](n)
			if err == nil {
				err = EWiseMultV(w, NoMaskV, NoAccum[float64](), times, part, full, nil)
			}
			return w, err
		},
		"Dup": func(full, _ *Vector[float64]) (*Vector[float64], error) { return full.Dup() },
	}
	writes := func(v *Vector[float64]) []func() error {
		return []func() error{
			func() error { return v.SetElement(-7, 3) },
			func() error { return v.RemoveElement(5) },
			func() error { return v.Resize(n / 2) },
			func() error { return v.Resize(n) },
			func() error { return v.SetElement(-8, n-1) },
			func() error {
				d, err := v.Dup()
				if err != nil {
					return err
				}
				return d.SetElement(-9, 0)
			},
			v.Clear,
		}
	}
	for _, mode := range []Mode{Blocking, NonBlocking} {
		for name, share := range sharers {
			for _, sharerWrites := range []bool{true, false} {
				withMode(t, mode, func() {
					rng := rand.New(rand.NewSource(43))
					full, _ := randVecModel(t, rng, n, 1)
					part, _ := randVecModel(t, rng, n, 0.5)
					w, err := share(full, part)
					if err != nil {
						t.Fatal(err)
					}
					writer, others := w, []*Vector[float64]{full, part}
					if !sharerWrites {
						writer, others = full, []*Vector[float64]{w}
					}
					models := make([]map[int]float64, len(others))
					for k, o := range others {
						models[k] = vecModel(t, o)
					}
					for step, write := range writes(writer) {
						if err := write(); err != nil {
							t.Fatal(err)
						}
						for k, o := range others {
							if got := vecModel(t, o); !reflect.DeepEqual(got, models[k]) {
								t.Fatalf("mode %v %s (sharer writes: %v): write %d changed another vector: %v, was %v", mode, name, sharerWrites, step, got, models[k])
							}
						}
					}
				})
			}
		}
	}
}
