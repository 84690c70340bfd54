package builtins

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/format"
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
// parallel push at two workers) or 5 % (a serial push), under no mask, a
// mask and a complemented one; the matrices are CSR and bitmap. The values
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
	name string
	run  func(t *testing.T, rng *rand.Rand)
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
	return kernelCase{name, func(t *testing.T, rng *rand.Rand) { checkRing(t, rng, s, arith) }}
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
	for _, kind := range []format.Kind{format.CSRKind, format.BitmapKind} {
		for _, mat := range []interface{ SetFormat(format.Kind) error }{ax, ay, by} {
			if err := mat.SetFormat(kind); err != nil {
				t.Fatal(err)
			}
		}
		for k := range ux {
			for _, mk := range masks {
				label := fmt.Sprintf("%v/u%d/%s", kind, k, mk.name)
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
		sameMat(t, fmt.Sprintf("%v/MxM<M>", kind), n, func(out *core.Matrix[Z], s core.Semiring[X, Y, Z]) error {
			return core.MxM(out, m, core.NoAccum[Z](), s, ax, by, nil)
		}, s, w, arith)
		sameMat(t, fmt.Sprintf("%v/MxM<M>+TRAN1", kind), n, func(out *core.Matrix[Z], s core.Semiring[X, Y, Z]) error {
			return core.MxM(out, m, core.NoAccum[Z](), s, ax, by, core.Desc().Transpose1())
		}, s, w, arith)
	}
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
// the bitmap ⟨+,×⟩ fast path alike.
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
	for _, kind := range []format.Kind{format.CSRKind, format.BitmapKind} {
		if err := a.SetFormat(kind); err != nil {
			t.Fatal(err)
		}
		sameVec(t, fmt.Sprintf("%v/⟨+,−⟩", kind), n, func(out *core.Vector[float64], s core.Semiring[float64, float64, float64]) error {
			return core.MxV(out, core.NoMaskV, core.NoAccum[float64](), s, a, u, nil)
		}, s, user, true)
	}
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
