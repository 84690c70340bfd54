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
// each vector element-wise kernel twice: once with the operator's opcode,
// which runs its compiled loop (sparse's builtin_vec.go), and once with
// OpNone, which runs the closure loop on the same function. The results
// must be the same bits — or the same panic, for an integer ÷ by zero.
//
// The kernels are the union and the intersection (index merge and both
// full-operand array loops), the reduce (from a drawn identity and from the
// domain's bound, where min and max stop at once), and the accumulating
// writes: the fill over every position, the assign of a vector over every
// position, WriteVec's accumulate, and the assign to a handful of targets.
// The operand pairs are full, partial, empty or a single entry on the
// left, against full, partial, empty, single, the left's complement
// (disjoint) and the left's own positions (identical) on the right. The
// values carry −0, two NaNs that differ in payload alone, ±Inf and the
// integer extremes, so a swapped operand, a lost sign, a wrong NaN or a
// fold in another order changes a bit; a second draw maps integer zeros to
// one, so integer ÷ runs to the end too. As in
// TestQuickBuiltinKernelsBitIdentical, which NaN survives + or × of two
// NaNs is not compared: the compiler commutes those at will.
//
// The same operators then run through the operations — eWiseAdd,
// eWiseMult, an accumulating eWiseAdd, the accumulating assigns and, for
// those that make a monoid, the reduce — predefined and wrapped in a user
// operator, which checks that core hands each kernel the operator's
// opcode.
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
						for _, id := range []T{x, lo, hi} {
							sameOutcome(t, label+" VecReduce", o.arith, func(c sparse.Opcode) *sparse.Vec[T] {
								r, _ := sparse.VecReduce(a, f, c, id, nil)
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
