package builtins

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/obs"
	"graphblas/internal/parallel"
)

func TestMain(m *testing.M) {
	core.ResetForTesting()
	if err := core.Init(core.Blocking); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestQuickBuiltinKernelsBitIdentical runs every (⊗, ⊕, domain) the kernels
// specialize (sparse's TestBuiltinLoopTable) through the operations that
// reach the loops — MxV, MxV+TRAN0, VxM, VxM+TRAN1, MxM under a mask with
// and without TRAN1 — once with the predefined semiring and once with the
// same functions wrapped by NewBinaryOp, which carry no opcode and so run
// the closure loops. The outputs must be the same bits.
//
// The vectors are full (the engine pulls), hold 40 % of the positions (a
// parallel push at two workers, or a pull where the loop folds a partial
// vector with no presence test) or 5 % (a serial push), under no mask, a
// mask and a complemented one; unmasked, MxM under ⟨+,×⟩ runs the dense
// product. The values
// carry −0, two NaNs that differ in payload alone, ±Inf and the integer
// extremes on both operands — a flipped first/second in VxM, a min or max
// whose operands were swapped, a fold that starts from the identity instead
// of the first term, or a NaN that wins the wrong comparison changes a bit
// somewhere. One thing is not compared: which payload survives when + or ×
// combines two NaNs. Go leaves that to the compiler, which commutes float +
// and × at will, on the closure loops as on the specialized ones; where a
// semiring has neither, payloads must match too.
func TestQuickBuiltinKernelsBitIdentical(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 2)
	parallel.SetSplitWorkForTest(t, chunkedSplitWork)
	push, pull := obs.MxVDirection.Value("push"), obs.MxVDirection.Value("pull")
	for _, c := range kernelCases() {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				c.run(t, rand.New(rand.NewSource(seed)))
			}
		})
	}
	if obs.MxVDirection.Value("push") == push || obs.MxVDirection.Value("pull") == pull {
		t.Error("the scatter products did not run both ways")
	}
}

type kernelCase struct {
	name    string
	run     func(t *testing.T, rng *rand.Rand)
	partial func(t *testing.T, rng *rand.Rand)
}

// kernelCases is the loop table: the selectors and the arithmetic semirings
// over each numeric domain, the mixed-domain selectors, and bool's lattice.
func kernelCases() []kernelCase {
	var cs []kernelCase
	cs = append(cs, numericCases[float64]("float64")...)
	cs = append(cs, numericCases[float32]("float32")...)
	cs = append(cs, numericCases[int64]("int64")...)
	cs = append(cs, numericCases[int32]("int32")...)
	cs = append(cs, numericCases[int]("int")...)
	or, and := LOrMonoid(), LAndMonoid()
	cs = append(cs,
		ringCase("bool/lor.land", LorLand(), false),
		ringCase("bool/land.lor", mustSemiring(and, LOr()), false),
		ringCase("bool/lor.first", mustSemiring(or, First[bool]()), false),
		ringCase("bool/lor.second", mustSemiring(or, Second[bool]()), false),
		ringCase("bool/land.first", mustSemiring(and, First[bool]()), false),
	)
	return cs
}

func numericCases[T Number](dom string) []kernelCase {
	var cs []kernelCase
	for _, m := range []struct {
		name  string
		add   core.Monoid[T]
		arith bool
	}{{"plus", PlusMonoid[T](), true}, {"min", MinMonoid[T](), false}, {"max", MaxMonoid[T](), false}} {
		cs = append(cs,
			ringCase(dom+"/"+m.name+".first", mustSemiring(m.add, First[T]()), m.arith),
			ringCase(dom+"/"+m.name+".second", mustSemiring(m.add, Second[T]()), m.arith),
			ringCase(dom+"/"+m.name+".pair", mustSemiring(m.add, Pair[T, T, T]()), m.arith),
			ringCase(dom+"/"+m.name+".first[T,bool]", mustSemiring(m.add, FirstOf[T, bool]()), m.arith),
			ringCase(dom+"/"+m.name+".second[bool,T]", mustSemiring(m.add, SecondOf[bool, T]()), m.arith),
			ringCase(dom+"/"+m.name+".pair[bool,bool]", mustSemiring(m.add, Pair[bool, bool, T]()), m.arith),
		)
	}
	return append(cs,
		ringCase(dom+"/plus.times", PlusTimes[T](), true),
		ringCase(dom+"/min.times", MinTimes[T](), true),
		ringCase(dom+"/min.plus", MinPlus[T](), true),
		ringCase(dom+"/max.plus", MaxPlus[T](), true),
		ringCase(dom+"/max.min", MaxMin[T](), false),
		ringCase(dom+"/min.max", MinMax[T](), false),
	)
}

// ringCase checks s; arith says + or × combines values in it, so two NaNs
// may meet and leave either payload.
func ringCase[X, Y, Z any](name string, s core.Semiring[X, Y, Z], arith bool) kernelCase {
	return kernelCase{name,
		func(t *testing.T, rng *rand.Rand) { checkRing(t, rng, s, arith) },
		func(t *testing.T, rng *rand.Rand) { checkPartialPull(t, rng, s, arith) }}
}

// wrapped is s with its functions behind user operators: the closure loops.
func wrapped[X, Y, Z any](t *testing.T, s core.Semiring[X, Y, Z]) core.Semiring[X, Y, Z] {
	t.Helper()
	mul, err := core.NewBinaryOp(s.Mul.Name, s.Mul.F)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.NewBinaryOp(s.Add.Op.Name, s.Add.Op.F)
	if err != nil {
		t.Fatal(err)
	}
	add, err := core.NewMonoid(op, s.Add.Identity)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewSemiring(add, mul)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func checkRing[X, Y, Z any](t *testing.T, rng *rand.Rand, s core.Semiring[X, Y, Z], arith bool) {
	t.Helper()
	const n = 200
	w := wrapped(t, s)
	// MxV and MxM read A over X and u, B over Y; VxM reads u over X, A over Y.
	ax, ay, by := randMatrix[X](t, rng, n, 0.15), randMatrix[Y](t, rng, n, 0.15), randMatrix[Y](t, rng, n, 0.15)
	m := randMatrix[bool](t, rng, n, 0.05)
	var ux []*core.Vector[X]
	var uy []*core.Vector[Y]
	for _, fill := range []float64{1, 0.4, 0.05} {
		ux = append(ux, randVector[X](t, rng, n, fill))
		uy = append(uy, randVector[Y](t, rng, n, fill))
	}
	mask := randVector[bool](t, rng, n, 0.5)
	masks := []struct {
		name string
		m    *core.Vector[bool]
		desc func() *core.Descriptor
	}{
		{"nomask", core.NoMaskV, core.Desc},
		{"mask", mask, core.Desc},
		{"compmask", mask, func() *core.Descriptor { return core.Desc().CompMask() }},
	}
	for k := range ux {
		for _, mk := range masks {
			label := fmt.Sprintf("u%d/%s", k, mk.name)
			sameVec(t, label+"/MxV", n, func(out *core.Vector[Z], s core.Semiring[X, Y, Z]) error {
				return core.MxV(out, mk.m, core.NoAccum[Z](), s, ax, uy[k], mk.desc())
			}, s, w, arith)
			sameVec(t, label+"/MxV+TRAN0", n, func(out *core.Vector[Z], s core.Semiring[X, Y, Z]) error {
				return core.MxV(out, mk.m, core.NoAccum[Z](), s, ax, uy[k], mk.desc().Transpose0())
			}, s, w, arith)
			sameVec(t, label+"/VxM", n, func(out *core.Vector[Z], s core.Semiring[X, Y, Z]) error {
				return core.VxM(out, mk.m, core.NoAccum[Z](), s, ux[k], ay, mk.desc())
			}, s, w, arith)
			sameVec(t, label+"/VxM+TRAN1", n, func(out *core.Vector[Z], s core.Semiring[X, Y, Z]) error {
				return core.VxM(out, mk.m, core.NoAccum[Z](), s, ux[k], ay, mk.desc().Transpose1())
			}, s, w, arith)
		}
	}
	// Unmasked, a predefined ⟨+,×⟩ runs the dense product (B is 15 % full)
	// against the wrapped operators' Gustavson kernel.
	sameMat(t, "MxM", n, func(out *core.Matrix[Z], s core.Semiring[X, Y, Z]) error {
		return core.MxM(out, core.NoMask, core.NoAccum[Z](), s, ax, by, nil)
	}, s, w, arith)
	sameMat(t, "MxM<M>", n, func(out *core.Matrix[Z], s core.Semiring[X, Y, Z]) error {
		return core.MxM(out, m, core.NoAccum[Z](), s, ax, by, nil)
	}, s, w, arith)
	sameMat(t, "MxM<M>+TRAN1", n, func(out *core.Matrix[Z], s core.Semiring[X, Y, Z]) error {
		return core.MxM(out, m, core.NoAccum[Z](), s, ax, by, core.Desc().Transpose1())
	}, s, w, arith)
}

func sameVec[X, Y, Z any](t *testing.T, label string, n int, op func(*core.Vector[Z], core.Semiring[X, Y, Z]) error, s, w core.Semiring[X, Y, Z], arith bool) {
	t.Helper()
	run := func(s core.Semiring[X, Y, Z]) ([]int, []Z) {
		out, err := core.NewVector[Z](n)
		if err != nil {
			t.Fatal(err)
		}
		if err := op(out, s); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		idx, val, err := out.ExtractTuples()
		if err != nil {
			t.Fatal(err)
		}
		return idx, val
	}
	gi, gv := run(s)
	wi, wv := run(w)
	if !reflect.DeepEqual(gi, wi) || !sameBits(gv, wv, arith) {
		t.Fatalf("%s: predefined and wrapped operators differ:\n%v %v\n%v %v", label, gi, gv, wi, wv)
	}
}

func sameMat[X, Y, Z any](t *testing.T, label string, n int, op func(*core.Matrix[Z], core.Semiring[X, Y, Z]) error, s, w core.Semiring[X, Y, Z], arith bool) {
	t.Helper()
	run := func(s core.Semiring[X, Y, Z]) ([]int, []int, []Z) {
		out, err := core.NewMatrix[Z](n, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := op(out, s); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		is, js, val, err := out.ExtractTuples()
		if err != nil {
			t.Fatal(err)
		}
		return is, js, val
	}
	gi, gj, gv := run(s)
	wi, wj, wv := run(w)
	if !reflect.DeepEqual(gi, wi) || !reflect.DeepEqual(gj, wj) || !sameBits(gv, wv, arith) {
		t.Fatalf("%s: predefined and wrapped operators differ", label)
	}
}

// sameBits compares values bit for bit — the sign of zero counts, and NaN
// payloads do unless anyNaN says any NaN matches any NaN.
func sameBits[T any](x, y []T, anyNaN bool) bool {
	if len(x) != len(y) {
		return false
	}
	same := func(a, b float64, bitsEqual bool) bool {
		return bitsEqual || anyNaN && math.IsNaN(a) && math.IsNaN(b)
	}
	switch xs := any(x).(type) {
	case []float64:
		ys := any(y).([]float64)
		for i := range xs {
			if !same(xs[i], ys[i], math.Float64bits(xs[i]) == math.Float64bits(ys[i])) {
				return false
			}
		}
		return true
	case []float32:
		ys := any(y).([]float32)
		for i := range xs {
			if !same(float64(xs[i]), float64(ys[i]), math.Float32bits(xs[i]) == math.Float32bits(ys[i])) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(x, y)
}

var (
	nan64a, nan64b = math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	nan32a, nan32b = math.Float32frombits(0x7fc00001), math.Float32frombits(0x7fc00002)
)

// draw returns a value of T: one time in four a payload the kernels must
// carry bit for bit, otherwise a small value of either sign whose magnitude
// spans enough binades that a fold in another order changes low bits.
func draw[T any](rng *rand.Rand) T {
	var v any
	special := rng.Intn(4) == 0
	small := math.Ldexp(float64(rng.Intn(15)-7), rng.Intn(30)-15)
	switch any(*new(T)).(type) {
	case float64:
		v = small
		if special {
			v = []float64{math.Copysign(0, -1), nan64a, nan64b, math.Inf(1), math.Inf(-1)}[rng.Intn(5)]
		}
	case float32:
		v = float32(small)
		if special {
			v = []float32{float32(math.Copysign(0, -1)), nan32a, nan32b, float32(math.Inf(1)), float32(math.Inf(-1))}[rng.Intn(5)]
		}
	case int64:
		v = int64(rng.Intn(15) - 7)
		if special {
			v = []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
		}
	case int32:
		v = int32(rng.Intn(15) - 7)
		if special {
			v = []int32{math.MinInt32, math.MaxInt32}[rng.Intn(2)]
		}
	case int:
		v = rng.Intn(15) - 7
		if special {
			v = []int{math.MinInt, math.MaxInt}[rng.Intn(2)]
		}
	case bool:
		v = rng.Intn(2) == 0
	}
	return v.(T)
}

func randMatrix[T any](t *testing.T, rng *rand.Rand, n int, fill float64) *core.Matrix[T] {
	t.Helper()
	var is, js []int
	var vs []T
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < fill {
				is, js, vs = append(is, i), append(js, j), append(vs, draw[T](rng))
			}
		}
	}
	m, err := core.NewMatrix[T](n, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Build(is, js, vs, First[T]()); err != nil {
		t.Fatal(err)
	}
	return m
}

func randVector[T any](t *testing.T, rng *rand.Rand, n int, fill float64) *core.Vector[T] {
	t.Helper()
	var is []int
	var vs []T
	for i := 0; i < n; i++ {
		if fill == 1 || rng.Float64() < fill {
			is, vs = append(is, i), append(vs, draw[T](rng))
		}
	}
	v, err := core.NewVector[T](n)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Build(is, vs, First[T]()); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestBuiltinOpcodeDroppedWhenFReassigned: a predefined operator whose
// function the caller replaced is a user operator. Its opcode must not
// select a loop — the caller's function runs — on the CSR kernels and on
// the dense ⟨+,×⟩ product alike.
func TestBuiltinOpcodeDroppedWhenFReassigned(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(3))
	a := randMatrix[float64](t, rng, n, 0.3)
	u := randVector[float64](t, rng, n, 1)
	minus := func(x, y float64) float64 { return x - y }
	s := PlusTimes[float64]()
	s.Mul.F = minus
	user := wrapped(t, PlusTimes[float64]())
	user.Mul.F = minus
	sameVec(t, "MxV ⟨+,−⟩", n, func(out *core.Vector[float64], s core.Semiring[float64, float64, float64]) error {
		return core.MxV(out, core.NoMaskV, core.NoAccum[float64](), s, a, u, nil)
	}, s, user, true)
	sameMat(t, "MxM ⟨+,−⟩", n, func(out *core.Matrix[float64], s core.Semiring[float64, float64, float64]) error {
		return core.MxM(out, core.NoMask, core.NoAccum[float64](), s, a, a, nil)
	}, s, user, true)
	// And the reference itself is ⟨+,−⟩, not ⟨+,×⟩.
	out, err := core.NewVector[float64](n)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.MxV(out, core.NoMaskV, core.NoAccum[float64](), s, a, u, nil); err != nil {
		t.Fatal(err)
	}
	is, js, vs, err := a.ExtractTuples()
	if err != nil {
		t.Fatal(err)
	}
	_, uv, err := u.ExtractTuples()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{}
	seen := map[int]bool{}
	for p, i := range is {
		x := minus(vs[p], uv[js[p]])
		if seen[i] {
			want[i] += x
		} else {
			want[i], seen[i] = x, true
		}
	}
	gi, gv, err := out.ExtractTuples()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(gv, collect(gi, want), true) {
		t.Fatalf("w = %v, want %v: the replaced function did not run", gv, collect(gi, want))
	}
}

func collect(idx []int, m map[int]float64) []float64 {
	out := make([]float64, len(idx))
	for p, i := range idx {
		out[p] = m[i]
	}
	return out
}

// TestQuickPartialPullBitIdentical runs the loop table through the scatter
// products on a vector holding nine positions in ten — enough edges that
// the engine pulls it over a cached transpose, whether or not the loop
// tests u's presence per edge — under no mask, a mask and a complemented
// one, at one, two and four workers. A loop that absorbs ⊕'s identity
// folds the absent slots as the identity DotMxV put there; the closure
// loops skip them. The outputs must be the same bits, and the pull counter
// must show the partial vectors were pulled.
//
// The pattern is symmetric, so a row of A and of Aᵀ hold the same columns,
// and vertices 0–10 carry rows built for the cases an absent identity could
// change: row 0's only present term is a signalling NaN (0 + sNaN is a
// quiet NaN), row 3's present terms are −0 and −0 (−0 + 0 is +0), and row
// 7's are x and −x. Row 0's result is compared bit for bit even where two
// NaNs meeting elsewhere may leave either payload.
func TestQuickPartialPullBitIdentical(t *testing.T) {
	pulls := obs.MxVDirection.Value("pull")
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			parallel.SetMaxWorkersForTest(t, workers)
			parallel.SetSplitWorkForTest(t, chunkedSplitWork)
			for _, c := range kernelCases() {
				t.Run(c.name, func(t *testing.T) { c.partial(t, rand.New(rand.NewSource(int64(workers)))) })
			}
		})
	}
	if obs.MxVDirection.Value("pull") == pulls {
		t.Error("no partial vector was pulled")
	}
}

// The rows of the symmetric pattern built for the identity's edge cases:
// row 0 holds columns 1 and 2, row 3 columns 4, 5 and 6, row 7 columns 8,
// 9 and 10; u stores 1, 4, 5, 8 and 9 and not 2, 6 or 10.
var (
	specialEdges  = [][2]int{{0, 1}, {0, 2}, {3, 4}, {3, 5}, {3, 6}, {7, 8}, {7, 9}, {7, 10}}
	specialAbsent = map[int]bool{2: true, 6: true, 10: true}
)

const specialRows = 11

// chunkedSplitWork is the split floor the kernel comparisons run under. Their
// 200-vertex operands hold some 6 000 entries, far under parallel.SplitWork;
// under this floor the specialized loops run in chunks at two and four
// workers, the same code a larger operand reaches at the real floor.
const chunkedSplitWork = 1024

func checkPartialPull[X, Y, Z any](t *testing.T, rng *rand.Rand, s core.Semiring[X, Y, Z], arith bool) {
	t.Helper()
	const n = 200
	w := wrapped(t, s)
	pattern := symmetricPattern(rng, n, 0.15)
	ax, ay := patternMatrix[X](t, rng, n, pattern), patternMatrix[Y](t, rng, n, pattern)
	ux, uy := partialVector[X](t, rng, n), partialVector[Y](t, rng, n)
	mask := randVector[bool](t, rng, n, 0.5)
	masks := []struct {
		name string
		m    *core.Vector[bool]
		desc func() *core.Descriptor
	}{
		{"nomask", core.NoMaskV, core.Desc},
		{"mask", mask, core.Desc},
		{"compmask", mask, func() *core.Descriptor { return core.Desc().CompMask() }},
	}
	for _, mk := range masks {
		sameRow0(t, mk.name+"/MxV", n, func(out *core.Vector[Z], s core.Semiring[X, Y, Z]) error {
			return core.MxV(out, mk.m, core.NoAccum[Z](), s, ax, uy, mk.desc())
		}, s, w, arith)
		sameRow0(t, mk.name+"/MxV+TRAN0", n, func(out *core.Vector[Z], s core.Semiring[X, Y, Z]) error {
			return core.MxV(out, mk.m, core.NoAccum[Z](), s, ax, uy, mk.desc().Transpose0())
		}, s, w, arith)
		sameRow0(t, mk.name+"/VxM", n, func(out *core.Vector[Z], s core.Semiring[X, Y, Z]) error {
			return core.VxM(out, mk.m, core.NoAccum[Z](), s, ux, ay, mk.desc())
		}, s, w, arith)
		sameRow0(t, mk.name+"/VxM+TRAN1", n, func(out *core.Vector[Z], s core.Semiring[X, Y, Z]) error {
			return core.VxM(out, mk.m, core.NoAccum[Z](), s, ux, ay, mk.desc().Transpose1())
		}, s, w, arith)
	}
}

// sameRow0 is sameVec, and row 0's value compared bit for bit whatever
// arith says: its one term is the signalling NaN, which no second NaN meets.
func sameRow0[X, Y, Z any](t *testing.T, label string, n int, op func(*core.Vector[Z], core.Semiring[X, Y, Z]) error, s, w core.Semiring[X, Y, Z], arith bool) {
	t.Helper()
	sameVec(t, label, n, op, s, w, arith)
	row0 := func(s core.Semiring[X, Y, Z]) ([]Z, error) {
		out, err := core.NewVector[Z](n)
		if err != nil {
			return nil, err
		}
		if err := op(out, s); err != nil {
			return nil, err
		}
		x, err := out.ExtractElement(0)
		if err != nil {
			return nil, nil // row 0 masked out or empty: nothing to compare
		}
		return []Z{x}, nil
	}
	g, err := row0(s)
	if err != nil {
		t.Fatal(err)
	}
	wv, err := row0(w)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(g, wv, false) {
		t.Fatalf("%s: row 0 = %v predefined, %v wrapped", label, g, wv)
	}
}

// symmetricPattern returns the edges of a symmetric pattern on n vertices:
// the special rows' edges and their mirrors, and each pair of the other
// vertices joined with probability fill.
func symmetricPattern(rng *rand.Rand, n int, fill float64) [][2]int {
	var es [][2]int
	for _, e := range specialEdges {
		es = append(es, e, [2]int{e[1], e[0]})
	}
	for i := specialRows; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < fill {
				es = append(es, [2]int{i, j}, [2]int{j, i})
			}
		}
	}
	return es
}

// patternMatrix builds a matrix of T on the pattern, its values drawn, and
// leaves its transpose cached, as a transposed read does.
func patternMatrix[T any](t *testing.T, rng *rand.Rand, n int, pattern [][2]int) *core.Matrix[T] {
	t.Helper()
	var is, js []int
	var vs []T
	for _, e := range pattern {
		is, js, vs = append(is, e[0]), append(js, e[1]), append(vs, draw[T](rng))
	}
	m, err := core.NewMatrix[T](n, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Build(is, js, vs, First[T]()); err != nil {
		t.Fatal(err)
	}
	mt, err := core.NewMatrix[T](n, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Transpose(mt, core.NoMask, core.NoAccum[T](), m, nil); err != nil {
		t.Fatal(err)
	}
	return m
}

// partialVector holds nine positions in ten of n, drawn, and the special
// rows' values: a signalling NaN at 1 (in the float domains; the greatest
// value elsewhere), −0 at 4 and 5, x and −x at 8 and 9, and nothing at 2,
// 6 and 10.
func partialVector[T any](t *testing.T, rng *rand.Rand, n int) *core.Vector[T] {
	t.Helper()
	var is []int
	var vs []T
	for i := 0; i < n; i++ {
		if specialAbsent[i] || i >= specialRows && rng.Intn(10) == 0 {
			continue
		}
		is, vs = append(is, i), append(vs, special[T](rng, i))
	}
	v, err := core.NewVector[T](n)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Build(is, vs, First[T]()); err != nil {
		t.Fatal(err)
	}
	return v
}

// special is position i's value in partialVector: drawn past the special
// rows, their value (0 where unlisted) on them.
func special[T any](rng *rand.Rand, i int) T {
	x := draw[T](rng)
	if i >= specialRows {
		return x
	}
	negZero := math.Copysign(0, -1)
	var v any
	switch any(x).(type) {
	case float64:
		v = map[int]float64{1: math.Float64frombits(0x7ff0000000000001), 4: negZero, 5: negZero, 8: 1.5, 9: -1.5}[i]
	case float32:
		v = map[int]float32{1: math.Float32frombits(0x7f800001), 4: float32(negZero), 5: float32(negZero), 8: 1.5, 9: -1.5}[i]
	case int64:
		v = map[int]int64{1: math.MaxInt64, 8: 3, 9: -3}[i]
	case int32:
		v = map[int]int32{1: math.MaxInt32, 8: 3, 9: -3}[i]
	case int:
		v = map[int]int{1: math.MaxInt, 8: 3, 9: -3}[i]
	default:
		return x
	}
	return v.(T)
}
