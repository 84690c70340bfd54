package builtins

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/sparse"
)

// TestElementwiseLoopsMatchClosures runs every predefined operator whose
// domains coincide, over every domain the loops are compiled for, through
// each element-wise kernel twice: once with the operator's opcode, which
// runs its compiled loop (sparse's builtin_vec.go), and once with OpNone,
// which runs the closure loop on the same function. The results must be
// the same bits — or the same panic, for an integer ÷ by zero.
//
// The vector kernels are the union and the intersection (index merge and
// both full-operand array loops), the reduce (from a drawn identity and
// from the domain's bound, where min and max stop at once), and the
// accumulating writes: the fill over every position, the assign of a
// vector over every position, WriteVec's accumulate, and the assign to a
// handful of targets. The matrix kernels, which run the same row merges
// and fold a row at a time, are UnionCSR, IntersectCSR, WriteCSR's
// accumulate, ReduceRowsCSR and ReduceAllCSR, on matrices whose rows pair
// the two operands both ways and each against an empty row. The operand
// pairs are full, partial, empty or a single entry on the left, against
// full, partial, empty, single, the left's complement (disjoint) and the
// left's own positions (identical) on the right. The
// values carry −0, two NaNs that differ in payload alone, ±Inf and the
// integer extremes, so a swapped operand, a lost sign, a wrong NaN or a
// fold in another order changes a bit; a second draw maps integer zeros to
// one, so integer ÷ runs to the end too. As in
// TestQuickBuiltinKernelsBitIdentical, which NaN survives + or × of two
// NaNs is not compared: the compiler commutes those at will.
//
// The same operators then run through the operations — eWiseAdd,
// eWiseMult, an accumulating eWiseAdd, the accumulating assigns and, for
// those that make a monoid, the reduces, on vectors and on matrices —
// predefined and wrapped in a user operator, which checks that core hands
// each kernel the operator's opcode.
func TestElementwiseLoopsMatchClosures(t *testing.T) {
	checkElementwise(t, "float64", numericOps[float64]())
	checkElementwise(t, "float32", numericOps[float32]())
	checkElementwise(t, "int64", numericOps[int64]())
	checkElementwise(t, "int32", numericOps[int32]())
	checkElementwise(t, "int", numericOps[int]())
	checkElementwise(t, "bool", []ewOp[bool]{
		{"first", First[bool](), sparse.OpFirst, false},
		{"second", Second[bool](), sparse.OpSecond, false},
		{"lor", LOr(), sparse.OpLOr, false},
		{"land", LAnd(), sparse.OpLAnd, false},
		{"lxor", LXor(), sparse.OpLXor, false},
	})
	// The operators whose output is one operand's domain, over mixed
	// domains: an intersection reads only what ⊙ reads.
	checkMixed(t, "first[float64,bool]", FirstOf[float64, bool](), sparse.OpFirst)
	checkMixed(t, "second[bool,float64]", SecondOf[bool, float64](), sparse.OpSecond)
	checkMixed(t, "pair[bool,int32,float64]", Pair[bool, int32, float64](), sparse.OpPair)
}

// ewOp is a predefined operator with the opcode its constructor stamps on
// it; arith says + or × may meet two NaNs.
type ewOp[T any] struct {
	name  string
	op    core.BinaryOp[T, T, T]
	code  sparse.Opcode
	arith bool
}

func numericOps[T Number]() []ewOp[T] {
	return []ewOp[T]{
		{"first", First[T](), sparse.OpFirst, false},
		{"second", Second[T](), sparse.OpSecond, false},
		{"pair", Pair[T, T, T](), sparse.OpPair, false},
		{"plus", Plus[T](), sparse.OpPlus, true},
		{"minus", Minus[T](), sparse.OpMinus, false},
		{"times", Times[T](), sparse.OpTimes, true},
		{"div", Div[T](), sparse.OpDiv, false},
		{"min", Min[T](), sparse.OpMin, false},
		{"max", Max[T](), sparse.OpMax, false},
		{"absdiff", AbsDiff[T](), sparse.OpAbsDiff, false},
	}
}

// ewShapes are the left operands' structures, and with the two that depend
// on the left, the right ones'.
var ewShapes = []string{"full", "partial", "empty", "single"}

// shapeIdx returns the positions of a vector of size n shaped by shape;
// left is the other operand's, for disjoint and identical.
func shapeIdx(rng *rand.Rand, n int, shape string, left []int) []int {
	var idx []int
	switch shape {
	case "full":
		for i := 0; i < n; i++ {
			idx = append(idx, i)
		}
	case "partial":
		for i := 0; i < n; i++ {
			if rng.Intn(5) < 2 {
				idx = append(idx, i)
			}
		}
	case "single":
		idx = []int{rng.Intn(n)}
	case "disjoint":
		in := map[int]bool{}
		for _, i := range left {
			in[i] = true
		}
		for i := 0; i < n; i++ {
			if !in[i] {
				idx = append(idx, i)
			}
		}
	case "identical":
		idx = append(idx, left...)
	}
	return idx
}

// ewVec builds the sparse vector with values drawn at idx; nonzero maps an
// integer 0 to 1.
func ewVec[T any](rng *rand.Rand, n int, idx []int, nonzero bool) *sparse.Vec[T] {
	val := make([]T, len(idx))
	for k := range val {
		val[k] = draw[T](rng)
		if nonzero {
			val[k] = nonzeroOf(val[k])
		}
	}
	v, ok := sparse.BuildVec(n, idx, val, nil)
	if !ok {
		panic("BuildVec")
	}
	return v
}

// nonzeroOf is v, or 1 when v is an integer 0.
func nonzeroOf[T any](v T) T {
	if r := reflect.ValueOf(v); r.CanInt() && r.Int() == 0 {
		return fromInt[T](1)
	}
	return v
}

// fromInt is k in the domain T; for bool, k ≠ 0.
func fromInt[T any](k int) T {
	var z T
	if b, ok := any(&z).(*bool); ok {
		*b = k != 0
		return z
	}
	return reflect.ValueOf(k).Convert(reflect.TypeOf(z)).Interface().(T)
}

// outcome runs a kernel and returns its result's tuples, or what it
// panicked with.
func outcome[T any](run func() *sparse.Vec[T]) (idx []int, val []T, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	idx, val = run().Tuples()
	return idx, val, ""
}

// sameOutcome runs kernel with the compiled loop and with the closure loop.
func sameOutcome[T any](t *testing.T, label string, arith bool, kernel func(code sparse.Opcode) *sparse.Vec[T], code sparse.Opcode) {
	t.Helper()
	gi, gv, gp := outcome(func() *sparse.Vec[T] { return kernel(code) })
	wi, wv, wp := outcome(func() *sparse.Vec[T] { return kernel(sparse.OpNone) })
	if gp != wp || !reflect.DeepEqual(gi, wi) || !sameBits(gv, wv, arith) {
		t.Fatalf("%s: compiled and closure loops differ:\ncompiled %v %v panic %q\nclosure  %v %v panic %q", label, gi, gv, gp, wi, wv, wp)
	}
}

func checkElementwise[T any](t *testing.T, dom string, ops []ewOp[T]) {
	const n = 64
	lo, hi := minMax[T]()
	for _, o := range ops {
		t.Run(dom+"/"+o.name, func(t *testing.T) {
			f, code := o.op.F, o.code
			rng := rand.New(rand.NewSource(5))
			for _, nonzero := range []bool{false, true} {
				for _, sa := range ewShapes {
					for _, sb := range append(ewShapes, "disjoint", "identical") {
						ai := shapeIdx(rng, n, sa, nil)
						a := ewVec[T](rng, n, ai, nonzero)
						b := ewVec[T](rng, n, shapeIdx(rng, n, sb, ai), nonzero)
						x := draw[T](rng)
						label := fmt.Sprintf("nonzero=%v a=%s b=%s", nonzero, sa, sb)
						sameOutcome(t, label+" VecUnion", o.arith, func(c sparse.Opcode) *sparse.Vec[T] { return sparse.VecUnion(a, b, f, c) }, code)
						sameOutcome(t, label+" VecIntersect", o.arith, func(c sparse.Opcode) *sparse.Vec[T] { return sparse.VecIntersect(a, b, f, c) }, code)
						sameOutcome(t, label+" WriteVec", o.arith, func(c sparse.Opcode) *sparse.Vec[T] { return sparse.WriteVec(a, b, nil, f, c, false) }, code)
						sameOutcome(t, label+" AssignExpandVec/all", o.arith, func(c sparse.Opcode) *sparse.Vec[T] { return sparse.AssignExpandVec(a, b, nil, f, c) }, code)
						sameOutcome(t, label+" AssignScalarExpandVec/all", o.arith, func(c sparse.Opcode) *sparse.Vec[T] { return sparse.AssignScalarExpandVec(a, x, nil, f, c) }, code)
						targets := []int{rng.Intn(n), n - 1 - rng.Intn(n/2)}
						if targets[0] == targets[1] {
							targets = targets[:1]
						}
						sameOutcome(t, label+" AssignScalarExpandVec/targets", o.arith, func(c sparse.Opcode) *sparse.Vec[T] { return sparse.AssignScalarExpandVec(a, x, targets, f, c) }, code)
						empty := ewVec[T](rng, n, nil, nonzero)
						am, bm := stack(n, a, b, empty, a), stack(n, b, a, b, empty)
						sameOutcome(t, label+" UnionCSR", o.arith, func(c sparse.Opcode) *sparse.Vec[T] { return flat(sparse.UnionCSR(am, bm, f, c)) }, code)
						sameOutcome(t, label+" IntersectCSR", o.arith, func(c sparse.Opcode) *sparse.Vec[T] { return flat(sparse.IntersectCSR(am, bm, f, c)) }, code)
						sameOutcome(t, label+" WriteCSR", o.arith, func(c sparse.Opcode) *sparse.Vec[T] { return flat(sparse.WriteCSR(am, bm, nil, f, c, false)) }, code)
						sameOutcome(t, label+" ReduceRowsCSR", o.arith, func(c sparse.Opcode) *sparse.Vec[T] { return sparse.ReduceRowsCSR(am, f, c, nil) }, code)
						for _, id := range []T{x, lo, hi} {
							sameOutcome(t, label+" VecReduce", o.arith, func(c sparse.Opcode) *sparse.Vec[T] {
								r, _ := sparse.VecReduce(a, f, c, id, nil)
								return sparse.FillVec(1, r, []int{0})
							}, code)
							sameOutcome(t, label+" ReduceAllCSR", o.arith, func(c sparse.Opcode) *sparse.Vec[T] {
								r, _ := sparse.ReduceAllCSR(am, f, c, id, nil)
								return sparse.FillVec(1, r, []int{0})
							}, code)
						}
					}
				}
			}
			checkOperations(t, o)
		})
	}
}

// stack is the matrix whose rows are the vectors rows, each of size n.
func stack[T any](n int, rows ...*sparse.Vec[T]) *sparse.CSR[T] {
	var is, js []int
	var vs []T
	for i, r := range rows {
		for k, j := range r.Idx {
			is, js, vs = append(is, i), append(js, j), append(vs, r.Val[k])
		}
	}
	m, ok := sparse.BuildCSR(len(rows), n, is, js, vs, nil)
	if !ok {
		panic("BuildCSR")
	}
	return m
}

// flat is m's entries as a vector over its cells, row after row, for
// sameOutcome.
func flat[T any](m *sparse.CSR[T]) *sparse.Vec[T] {
	is, js, vs := m.Tuples()
	for k := range is {
		is[k] = is[k]*m.NCols + js[k]
	}
	return &sparse.Vec[T]{N: m.NRows * m.NCols, Idx: is, Val: vs}
}

// minMax is the least and greatest value of a domain the loops cover.
func minMax[T any]() (lo, hi T) {
	switch any(lo).(type) {
	case bool:
		return fromInt[T](0), fromInt[T](1)
	case float64:
		return any(MinValue[float64]()).(T), any(MaxValue[float64]()).(T)
	case float32:
		return any(MinValue[float32]()).(T), any(MaxValue[float32]()).(T)
	case int64:
		return any(MinValue[int64]()).(T), any(MaxValue[int64]()).(T)
	case int32:
		return any(MinValue[int32]()).(T), any(MaxValue[int32]()).(T)
	case int:
		return any(MinValue[int]()).(T), any(MaxValue[int]()).(T)
	}
	return lo, hi
}

// checkOperations runs o through the operations, predefined and wrapped,
// on operands without integer zeros.
func checkOperations[T any](t *testing.T, o ewOp[T]) {
	t.Helper()
	const n = 64
	user, err := core.NewBinaryOp(o.name, o.op.F)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	vec := func(shape string) *core.Vector[T] {
		s := ewVec[T](rng, n, shapeIdx(rng, n, shape, nil), true)
		v, err := core.NewVector[T](n)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Build(s.Idx, s.Val, First[T]()); err != nil {
			t.Fatal(err)
		}
		return v
	}
	u, v, full := vec("partial"), vec("partial"), vec("full")
	x := nonzeroOf(draw[T](rng))
	type run func(out *core.Vector[T], op core.BinaryOp[T, T, T]) error
	runs := map[string]run{
		"EWiseAddV": func(out *core.Vector[T], op core.BinaryOp[T, T, T]) error {
			return core.EWiseAddV(out, core.NoMaskV, core.NoAccum[T](), op, u, v, nil)
		},
		"EWiseAddV/full": func(out *core.Vector[T], op core.BinaryOp[T, T, T]) error {
			return core.EWiseAddV(out, core.NoMaskV, core.NoAccum[T](), op, full, v, nil)
		},
		"EWiseMultV": func(out *core.Vector[T], op core.BinaryOp[T, T, T]) error {
			return core.EWiseMultV(out, core.NoMaskV, core.NoAccum[T](), op, u, v, nil)
		},
		"EWiseMultV/full": func(out *core.Vector[T], op core.BinaryOp[T, T, T]) error {
			return core.EWiseMultV(out, core.NoMaskV, core.NoAccum[T](), op, u, full, nil)
		},
		"EWiseAddV+accum": func(out *core.Vector[T], op core.BinaryOp[T, T, T]) error {
			if err := core.AssignVector(out, core.NoMaskV, core.NoAccum[T](), u, core.All, nil); err != nil {
				return err
			}
			return core.EWiseAddV(out, core.NoMaskV, op, First[T](), v, v, nil)
		},
		"AssignVectorScalar+accum": func(out *core.Vector[T], op core.BinaryOp[T, T, T]) error {
			if err := core.AssignVector(out, core.NoMaskV, core.NoAccum[T](), u, core.All, nil); err != nil {
				return err
			}
			if err := core.AssignVectorScalar(out, core.NoMaskV, op, x, core.All, nil); err != nil {
				return err
			}
			return core.AssignVectorScalar(out, core.NoMaskV, op, x, []int{3, 40}, nil)
		},
		"AssignVector+accum": func(out *core.Vector[T], op core.BinaryOp[T, T, T]) error {
			if err := core.AssignVector(out, core.NoMaskV, core.NoAccum[T](), u, core.All, nil); err != nil {
				return err
			}
			return core.AssignVector(out, core.NoMaskV, op, v, core.All, nil)
		},
	}
	for name, r := range runs {
		result := func(op core.BinaryOp[T, T, T]) ([]int, []T) {
			out, err := core.NewVector[T](n)
			if err != nil {
				t.Fatal(err)
			}
			if err := r(out, op); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			idx, val, err := out.ExtractTuples()
			if err != nil {
				t.Fatal(err)
			}
			return idx, val
		}
		gi, gv := result(o.op)
		wi, wv := result(user)
		if !reflect.DeepEqual(gi, wi) || !sameBits(gv, wv, o.arith) {
			t.Fatalf("%s: predefined and user operators differ:\n%v %v\n%v %v", name, gi, gv, wi, wv)
		}
	}
	// The matrix operations, on matrices of four such rows; the assigns
	// write over every position and over shuffled lists.
	const nr = 4
	mat := func(shape string) *core.Matrix[T] {
		rows := make([]*sparse.Vec[T], nr)
		for i := range rows {
			rows[i] = ewVec[T](rng, n, shapeIdx(rng, n, shape, nil), true)
		}
		s := flat(stack(n, rows...))
		m, err := core.NewMatrix[T](nr, n)
		if err != nil {
			t.Fatal(err)
		}
		is, js := make([]int, len(s.Idx)), make([]int, len(s.Idx))
		for k, c := range s.Idx {
			is[k], js[k] = c/n, c%n
		}
		if err := m.Build(is, js, s.Val, First[T]()); err != nil {
			t.Fatal(err)
		}
		return m
	}
	um, vm := mat("partial"), mat("partial")
	rows, cols := []int{3, 0, 2, 1}, rng.Perm(n)
	col := vec("partial")
	col.Resize(nr)
	type matRun func(out *core.Matrix[T], op core.BinaryOp[T, T, T]) error
	seed := func(out *core.Matrix[T]) error {
		return core.AssignMatrix(out, core.NoMask, core.NoAccum[T](), um, core.All, core.All, nil)
	}
	matRuns := map[string]matRun{
		"EWiseAddM": func(out *core.Matrix[T], op core.BinaryOp[T, T, T]) error {
			return core.EWiseAddM(out, core.NoMask, core.NoAccum[T](), op, um, vm, nil)
		},
		"EWiseMultM": func(out *core.Matrix[T], op core.BinaryOp[T, T, T]) error {
			return core.EWiseMultM(out, core.NoMask, core.NoAccum[T](), op, um, vm, nil)
		},
		"EWiseAddM+accum": func(out *core.Matrix[T], op core.BinaryOp[T, T, T]) error {
			if err := seed(out); err != nil {
				return err
			}
			return core.EWiseAddM(out, core.NoMask, op, First[T](), vm, vm, nil)
		},
		"AssignMatrix+accum": func(out *core.Matrix[T], op core.BinaryOp[T, T, T]) error {
			if err := seed(out); err != nil {
				return err
			}
			if err := core.AssignMatrix(out, core.NoMask, op, vm, core.All, core.All, nil); err != nil {
				return err
			}
			return core.AssignMatrix(out, core.NoMask, op, um, rows, cols, nil)
		},
		"AssignMatrixScalar+accum": func(out *core.Matrix[T], op core.BinaryOp[T, T, T]) error {
			if err := seed(out); err != nil {
				return err
			}
			if err := core.AssignMatrixScalar(out, core.NoMask, op, x, core.All, core.All, nil); err != nil {
				return err
			}
			return core.AssignMatrixScalar(out, core.NoMask, op, x, rows[:2], cols[:5], nil)
		},
		"AssignRow+accum": func(out *core.Matrix[T], op core.BinaryOp[T, T, T]) error {
			if err := seed(out); err != nil {
				return err
			}
			if err := core.AssignRow(out, core.NoMaskV, op, v, 2, core.All, nil); err != nil {
				return err
			}
			return core.AssignRow(out, core.NoMaskV, op, u, 1, cols, nil)
		},
		"AssignCol+accum": func(out *core.Matrix[T], op core.BinaryOp[T, T, T]) error {
			if err := seed(out); err != nil {
				return err
			}
			if err := core.AssignCol(out, core.NoMaskV, op, col, core.All, 5, nil); err != nil {
				return err
			}
			return core.AssignCol(out, core.NoMaskV, op, col, rows, 40, nil)
		},
	}
	for name, r := range matRuns {
		result := func(op core.BinaryOp[T, T, T]) ([]int, []int, []T) {
			out, err := core.NewMatrix[T](nr, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := r(out, op); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			is, js, val, err := out.ExtractTuples()
			if err != nil {
				t.Fatal(err)
			}
			return is, js, val
		}
		gi, gj, gv := result(o.op)
		wi, wj, wv := result(user)
		if !reflect.DeepEqual(gi, wi) || !reflect.DeepEqual(gj, wj) || !sameBits(gv, wv, o.arith) {
			t.Fatalf("%s: predefined and user operators differ:\n%v %v %v\n%v %v %v", name, gi, gj, gv, wi, wj, wv)
		}
	}
	// The monoids among the operators, with their identities.
	lo, hi := minMax[T]()
	identity := map[string]T{"plus": fromInt[T](0), "times": fromInt[T](1), "min": hi, "max": lo,
		"lor": fromInt[T](0), "lxor": fromInt[T](0), "land": fromInt[T](1)}
	id, ok := identity[o.name]
	if !ok {
		return
	}
	var zero T
	reduce := func(op core.BinaryOp[T, T, T]) T {
		m, err := core.NewMonoid(op, id)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.ReduceVectorToScalar(zero, core.NoAccum[T](), m, u)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if g, w := reduce(o.op), reduce(user); !sameBits([]T{g}, []T{w}, o.arith) {
		t.Fatalf("ReduceVectorToScalar: predefined %v, user %v", g, w)
	}
	reduceM := func(op core.BinaryOp[T, T, T]) (T, []int, []T) {
		m, err := core.NewMonoid(op, id)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.ReduceMatrixToScalar(zero, core.NoAccum[T](), m, um)
		if err != nil {
			t.Fatal(err)
		}
		w, err := core.NewVector[T](nr)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.ReduceMatrixToVector(w, core.NoMaskV, core.NoAccum[T](), m, um, nil); err != nil {
			t.Fatal(err)
		}
		idx, val, err := w.ExtractTuples()
		if err != nil {
			t.Fatal(err)
		}
		return r, idx, val
	}
	g, gi, gv := reduceM(o.op)
	w, wi, wv := reduceM(user)
	if !sameBits([]T{g}, []T{w}, o.arith) {
		t.Fatalf("ReduceMatrixToScalar: predefined %v, user %v", g, w)
	}
	if !reflect.DeepEqual(gi, wi) || !sameBits(gv, wv, o.arith) {
		t.Fatalf("ReduceMatrixToVector: predefined and user operators differ:\n%v %v\n%v %v", gi, gv, wi, wv)
	}
}

// checkMixed runs a mixed-domain selector through the intersection, both
// merge and array paths, compiled and closure.
func checkMixed[X, Y, Z any](t *testing.T, name string, op core.BinaryOp[X, Y, Z], code sparse.Opcode) {
	const n = 64
	rng := rand.New(rand.NewSource(6))
	for _, sa := range ewShapes {
		for _, sb := range ewShapes {
			a := ewVec[X](rng, n, shapeIdx(rng, n, sa, nil), false)
			b := ewVec[Y](rng, n, shapeIdx(rng, n, sb, nil), false)
			sameOutcome(t, fmt.Sprintf("%s a=%s b=%s VecIntersect", name, sa, sb), false, func(c sparse.Opcode) *sparse.Vec[Z] {
				return sparse.VecIntersect(a, b, op.F, c)
			}, code)
		}
	}
}
