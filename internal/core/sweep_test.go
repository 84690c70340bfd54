package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// oracleWrite applies the accumulate-then-mask pipeline to dense models —
// the shared final stage of every Table II operation.
func oracleWrite(c, t dmat, nr, nc int, stored, eff map[key]bool, useMask, scmp, accum, replace bool) dmat {
	z := dmat{}
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
	out := dmat{}
	allow := func(k key) bool {
		if !useMask {
			return true
		}
		if scmp {
			return !stored[k]
		}
		return eff[k]
	}
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			k := key{i, j}
			if allow(k) {
				if v, ok := z[k]; ok {
					out[k] = v
				}
			} else if !replace {
				if v, ok := c[k]; ok {
					out[k] = v
				}
			}
		}
	}
	return out
}

// sweepCases enumerates the mask/accum/replace combinations shared by all
// write-pipeline sweeps.
func sweepCases(f func(useMask, scmp, accum, replace bool, name string)) {
	for _, useMask := range []bool{false, true} {
		for _, scmp := range []bool{false, true} {
			if scmp && !useMask {
				continue
			}
			for _, accum := range []bool{false, true} {
				for _, replace := range []bool{false, true} {
					f(useMask, scmp, accum, replace,
						fmt.Sprintf("mask=%v/scmp=%v/acc=%v/rep=%v", useMask, scmp, accum, replace))
				}
			}
		}
	}
}

func sweepDesc(scmp, replace bool) *Descriptor {
	d := &Descriptor{}
	if scmp {
		d.CompMask()
	}
	if replace {
		d.ReplaceOutput()
	}
	return d
}

// TestSweep_EWiseAdd runs the full write-pipeline sweep for eWiseAdd.
func TestSweep_EWiseAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const nr, nc = 7, 6
	a, ad := newTestMatrix(t, rng, nr, nc, 0.4)
	bm, bd := newTestMatrix(t, rng, nr, nc, 0.4)
	want := dmat{}
	for k, v := range ad {
		want[k] = v
	}
	for k, v := range bd {
		if cv, ok := want[k]; ok {
			want[k] = cv + v
		} else {
			want[k] = v
		}
	}
	sweepCases(func(useMask, scmp, accum, replace bool, name string) {
		t.Run(name, func(t *testing.T) {
			c, cd := newTestMatrix(t, rng, nr, nc, 0.3)
			mask, stored, eff := newTestMask(t, rng, nr, nc, 0.5, 0.7)
			acc := NoAccum[float64]()
			if accum {
				acc = plusF64()
			}
			var mk *Matrix[bool]
			if useMask {
				mk = mask
			}
			if err := EWiseAddM(c, mk, acc, plusF64(), a, bm, sweepDesc(scmp, replace)); err != nil {
				t.Fatalf("EWiseAddM: %v", err)
			}
			equalDense(t, denseOf(t, c),
				oracleWrite(cd, want, nr, nc, stored, eff, useMask, scmp, accum, replace), name)
		})
	})
}

// TestSweep_Apply runs the write-pipeline sweep for apply.
func TestSweep_Apply(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	const nr, nc = 6, 8
	a, ad := newTestMatrix(t, rng, nr, nc, 0.45)
	neg := UnaryOp[float64, float64]{Name: "neg", F: func(x float64) float64 { return -x }}
	tmodel := dmat{}
	for k, v := range ad {
		tmodel[k] = -v
	}
	sweepCases(func(useMask, scmp, accum, replace bool, name string) {
		t.Run(name, func(t *testing.T) {
			c, cd := newTestMatrix(t, rng, nr, nc, 0.3)
			mask, stored, eff := newTestMask(t, rng, nr, nc, 0.5, 0.6)
			acc := NoAccum[float64]()
			if accum {
				acc = plusF64()
			}
			var mk *Matrix[bool]
			if useMask {
				mk = mask
			}
			if err := ApplyM(c, mk, acc, neg, a, sweepDesc(scmp, replace)); err != nil {
				t.Fatalf("ApplyM: %v", err)
			}
			equalDense(t, denseOf(t, c),
				oracleWrite(cd, tmodel, nr, nc, stored, eff, useMask, scmp, accum, replace), name)
		})
	})
}

// TestSweep_Transpose runs the write-pipeline sweep for transpose (whose
// internal result can alias shared storage — the one ownership special
// case).
func TestSweep_Transpose(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	const n = 7
	a, ad := newTestMatrix(t, rng, n, n, 0.4)
	tmodel := dmat{}
	for k, v := range ad {
		tmodel[key{k.j, k.i}] = v
	}
	sweepCases(func(useMask, scmp, accum, replace bool, name string) {
		t.Run(name, func(t *testing.T) {
			c, cd := newTestMatrix(t, rng, n, n, 0.3)
			mask, stored, eff := newTestMask(t, rng, n, n, 0.5, 0.7)
			acc := NoAccum[float64]()
			if accum {
				acc = plusF64()
			}
			var mk *Matrix[bool]
			if useMask {
				mk = mask
			}
			if err := Transpose(c, mk, acc, a, sweepDesc(scmp, replace)); err != nil {
				t.Fatalf("Transpose: %v", err)
			}
			equalDense(t, denseOf(t, c),
				oracleWrite(cd, tmodel, n, n, stored, eff, useMask, scmp, accum, replace), name)
			// The input must be untouched by the write-back (aliasing of the
			// transpose cache or a.data would corrupt it).
			equalDense(t, denseOf(t, a), ad, name+"/input-intact")
		})
	})
}

// TestSweep_ExtractSubmatrix runs the write-pipeline sweep for extract.
func TestSweep_ExtractSubmatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	a, ad := newTestMatrix(t, rng, 8, 8, 0.45)
	rows := []int{5, 2, 2, 7}
	cols := []int{0, 6, 3}
	tmodel := dmat{}
	for r, src := range rows {
		for q, cj := range cols {
			if v, ok := ad[key{src, cj}]; ok {
				tmodel[key{r, q}] = v
			}
		}
	}
	nr, nc := len(rows), len(cols)
	sweepCases(func(useMask, scmp, accum, replace bool, name string) {
		t.Run(name, func(t *testing.T) {
			c, cd := newTestMatrix(t, rng, nr, nc, 0.3)
			mask, stored, eff := newTestMask(t, rng, nr, nc, 0.5, 0.7)
			acc := NoAccum[float64]()
			if accum {
				acc = plusF64()
			}
			var mk *Matrix[bool]
			if useMask {
				mk = mask
			}
			if err := ExtractSubmatrix(c, mk, acc, a, rows, cols, sweepDesc(scmp, replace)); err != nil {
				t.Fatalf("Extract: %v", err)
			}
			equalDense(t, denseOf(t, c),
				oracleWrite(cd, tmodel, nr, nc, stored, eff, useMask, scmp, accum, replace), name)
		})
	})
}

// TestSweep_AssignScalar sweeps the assign pipeline, whose Z-building stage
// differs from the other operations (region merge instead of full result).
func TestSweep_AssignScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	const n = 7
	rows := []int{1, 4, 6}
	cols := []int{0, 3}
	sweepCases(func(useMask, scmp, accum, replace bool, name string) {
		t.Run(name, func(t *testing.T) {
			c, cd := newTestMatrix(t, rng, n, n, 0.35)
			mask, stored, eff := newTestMask(t, rng, n, n, 0.5, 0.7)
			acc := NoAccum[float64]()
			if accum {
				acc = plusF64()
			}
			var mk *Matrix[bool]
			if useMask {
				mk = mask
			}
			if err := AssignMatrixScalar(c, mk, acc, 9, rows, cols, sweepDesc(scmp, replace)); err != nil {
				t.Fatalf("AssignScalar: %v", err)
			}
			// Z model: c everywhere; assigned positions get 9 (or c+9 with
			// accum).
			z := dmat{}
			for k, v := range cd {
				z[k] = v
			}
			for _, i := range rows {
				for _, j := range cols {
					k := key{i, j}
					if accum {
						if cv, ok := z[k]; ok {
							z[k] = cv + 9
							continue
						}
					}
					z[k] = 9
				}
			}
			// Final mask stage over Z (assign consults z, not t, everywhere).
			want := dmat{}
			allow := func(k key) bool {
				if !useMask {
					return true
				}
				if scmp {
					return !stored[k]
				}
				return eff[k]
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					k := key{i, j}
					if allow(k) {
						if v, ok := z[k]; ok {
							want[k] = v
						}
					} else if !replace {
						if v, ok := cd[k]; ok {
							want[k] = v
						}
					}
				}
			}
			equalDense(t, denseOf(t, c), want, name)
		})
	})
}

// TestReadOnlyConcurrentSharing checks the Section IV multithreading rule
// this binding supports: read-only objects may be shared across goroutines
// (including concurrent first-use of the lazily built transpose cache).
func TestReadOnlyConcurrentSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	a, _ := newTestMatrix(t, rng, 40, 40, 0.2)
	s := plusTimesF64(t)
	var wg sync.WaitGroup
	results := make([]dmat, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := NewMatrix[float64](40, 40)
			if err != nil {
				t.Errorf("NewMatrix: %v", err)
				return
			}
			// Transposed read exercises the shared transpose cache.
			if err := MxM(c, NoMask, NoAccum[float64](), s, a, a, Desc().Transpose0()); err != nil {
				t.Errorf("MxM: %v", err)
				return
			}
			results[g] = denseOf(t, c)
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		if len(results[g]) != len(results[0]) {
			t.Fatalf("goroutine %d diverged", g)
		}
		for k, v := range results[0] {
			if results[g][k] != v {
				t.Fatalf("goroutine %d diverged at (%d,%d)", g, k.i, k.j)
			}
		}
	}
}

// The Figure 2 grid. The sweeps above each run one operation through
// sweepCases; the operations below share one more table instead of one more
// test each. gridCases extends sweepCases by the descriptor's input
// transposes and by the two aliasing shapes the write-back must keep right —
// the output doubling as the first input, and the output doubling as its own
// mask — and every operation of the table runs the whole grid against the
// dense model and the same oracleWrite / vecOracleWrite.

type gridCase struct {
	useMask, scmp, accum, replace bool
	tran0, tran1                  bool
	alias                         string // "", gridOutIsIn0 or gridMaskIsOut
	name                          string
}

const (
	gridOutIsIn0  = "out=in0"
	gridMaskIsOut = "mask=out"
)

// gridCases enumerates sweepCases × the transposes the operation honours ×
// the aliasing shapes it admits.
func gridCases(tran0, tran1 bool, aliases []string, f func(g gridCase)) {
	flags := func(on bool) []bool {
		if on {
			return []bool{false, true}
		}
		return []bool{false}
	}
	sweepCases(func(useMask, scmp, accum, replace bool, name string) {
		for _, t0 := range flags(tran0) {
			for _, t1 := range flags(tran1) {
				for _, alias := range append([]string{""}, aliases...) {
					if alias == gridMaskIsOut && !useMask {
						continue
					}
					f(gridCase{useMask, scmp, accum, replace, t0, t1, alias,
						fmt.Sprintf("%s/t0=%v/t1=%v/alias=%s", name, t0, t1, alias)})
				}
			}
		}
	})
}

func (g gridCase) desc() *Descriptor {
	d := sweepDesc(g.scmp, g.replace)
	if g.tran0 {
		d.Transpose0()
	}
	if g.tran1 {
		d.Transpose1()
	}
	return d
}

func (g gridCase) accumOp() BinaryOp[float64, float64, float64] {
	if g.accum {
		return plusF64()
	}
	return NoAccum[float64]()
}

// newValueMask builds a float64 mask whose stored values are 0 or 1 — the
// value-mask form, cast to bool as the C API does — plus its stored and
// effective models.
func newValueMask(t *testing.T, rng *rand.Rand, nr, nc int) (*Matrix[float64], map[key]bool, map[key]bool) {
	t.Helper()
	m, err := NewMatrix[float64](nr, nc)
	if err != nil {
		t.Fatal(err)
	}
	stored, eff := map[key]bool{}, map[key]bool{}
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Float64() < 0.5 {
				v := 0.0
				if rng.Float64() < 0.7 {
					v, eff[key{i, j}] = 1, true
				}
				stored[key{i, j}] = true
				if err := m.SetElement(v, i, j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return m, stored, eff
}

func transposeDense(a dmat) dmat {
	t := dmat{}
	for k, v := range a {
		t[key{k.j, k.i}] = v
	}
	return t
}

// structureOf is the mask model of an object used as its own mask: every
// stored value of the test matrices is nonzero, so pattern and structure
// coincide.
func structureOf(d dmat) map[key]bool {
	s := map[key]bool{}
	for k := range d {
		s[k] = true
	}
	return s
}

// matGridOp is a matrix-output operation over square n×n inputs: result
// models T from the operands as the operation sees them (already
// transposed); out gives the output's side length.
type matGridOp struct {
	name         string
	tran0, tran1 bool
	aliases      []string
	out          func(n int) int
	result       func(a, b dmat, n int) dmat
	call         func(c, mask *Matrix[float64], acc BinaryOp[float64, float64, float64], a, b *Matrix[float64], d *Descriptor) error
}

func sameSide(n int) int { return n }

var matGridOps = []matGridOp{
	{"EWiseMult", true, true, []string{gridOutIsIn0, gridMaskIsOut}, sameSide,
		func(a, b dmat, n int) dmat {
			t := dmat{}
			for k, v := range a {
				if bv, ok := b[k]; ok {
					t[k] = v * bv
				}
			}
			return t
		},
		func(c, mask *Matrix[float64], acc BinaryOp[float64, float64, float64], a, b *Matrix[float64], d *Descriptor) error {
			times := BinaryOp[float64, float64, float64]{Name: "times", F: func(x, y float64) float64 { return x * y }}
			return EWiseMultM(c, mask, acc, times, a, b, d)
		}},
	{"EWiseUnion", true, true, []string{gridOutIsIn0, gridMaskIsOut}, sameSide,
		func(a, b dmat, n int) dmat {
			t := dmat{}
			for k, v := range a {
				t[k] = v - 100 // beta stands in for an absent B
			}
			for k, bv := range b {
				if av, ok := a[k]; ok {
					t[k] = av - bv
				} else {
					t[k] = 50 - bv // alpha stands in for an absent A
				}
			}
			return t
		},
		func(c, mask *Matrix[float64], acc BinaryOp[float64, float64, float64], a, b *Matrix[float64], d *Descriptor) error {
			minus := BinaryOp[float64, float64, float64]{Name: "minus", F: func(x, y float64) float64 { return x - y }}
			return EWiseUnionM(c, mask, acc, minus, a, 50, b, 100, d)
		}},
	{"Select", true, false, []string{gridOutIsIn0, gridMaskIsOut}, sameSide,
		func(a, _ dmat, n int) dmat {
			t := dmat{}
			for k, v := range a {
				if k.i <= k.j && v > 3 {
					t[k] = v
				}
			}
			return t
		},
		func(c, mask *Matrix[float64], acc BinaryOp[float64, float64, float64], a, _ *Matrix[float64], d *Descriptor) error {
			upperBig := IndexUnaryOp[float64, bool]{Name: "upperBig", F: func(v float64, i, j int) bool { return i <= j && v > 3 }}
			return SelectM(c, mask, acc, upperBig, a, d)
		}},
	{"ApplyIndexOp", true, false, []string{gridOutIsIn0, gridMaskIsOut}, sameSide,
		func(a, _ dmat, n int) dmat {
			t := dmat{}
			for k, v := range a {
				t[k] = v + float64(100*k.i+10*k.j)
			}
			return t
		},
		func(c, mask *Matrix[float64], acc BinaryOp[float64, float64, float64], a, _ *Matrix[float64], d *Descriptor) error {
			place := IndexUnaryOp[float64, float64]{Name: "place", F: func(v float64, i, j int) float64 { return v + float64(100*i+10*j) }}
			return ApplyIndexOpM(c, mask, acc, place, a, d)
		}},
	// The Kronecker product is n²×n², so its output cannot double as an input.
	{"Kronecker", true, true, []string{gridMaskIsOut}, func(n int) int { return n * n },
		func(a, b dmat, n int) dmat {
			t := dmat{}
			for ka, av := range a {
				for kb, bv := range b {
					t[key{ka.i*n + kb.i, ka.j*n + kb.j}] = av * bv
				}
			}
			return t
		},
		func(c, mask *Matrix[float64], acc BinaryOp[float64, float64, float64], a, b *Matrix[float64], d *Descriptor) error {
			times := BinaryOp[float64, float64, float64]{Name: "times", F: func(x, y float64) float64 { return x * y }}
			return Kronecker(c, mask, acc, times, a, b, d)
		}},
}

// TestSweep_Fig2GridMatrix runs every operation of matGridOps through the
// grid.
func TestSweep_Fig2GridMatrix(t *testing.T) {
	const n = 4
	for _, op := range matGridOps {
		rng := rand.New(rand.NewSource(131))
		side := op.out(n)
		gridCases(op.tran0, op.tran1, op.aliases, func(g gridCase) {
			t.Run(op.name+"/"+g.name, func(t *testing.T) {
				a, ad := newTestMatrix(t, rng, n, n, 0.5)
				b, bd := newTestMatrix(t, rng, n, n, 0.5)
				c, cd := newTestMatrix(t, rng, side, side, 0.4)
				mask, stored, eff := newValueMask(t, rng, side, side)
				switch g.alias {
				case gridOutIsIn0:
					a, ad = c, cd
				case gridMaskIsOut:
					mask, stored, eff = c, structureOf(cd), structureOf(cd)
				}
				if !g.useMask {
					mask = nil
				}
				seenA, seenB := ad, bd
				if g.tran0 {
					seenA = transposeDense(ad)
				}
				if g.tran1 {
					seenB = transposeDense(bd)
				}
				if err := op.call(c, mask, g.accumOp(), a, b, g.desc()); err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				want := oracleWrite(cd, op.result(seenA, seenB, n), side, side, stored, eff, g.useMask, g.scmp, g.accum, g.replace)
				equalDense(t, denseOf(t, c), want, g.name)
				if g.alias != gridOutIsIn0 {
					equalDense(t, denseOf(t, a), ad, g.name+"/first input intact")
				}
				equalDense(t, denseOf(t, b), bd, g.name+"/second input intact")
			})
		})
	}
}
