// Package builtins provides the predefined GraphBLAS operators, monoids,
// and semirings: the Table IV operators of the paper, the full operator
// families of the 1.0 specification across the built-in domains, and the
// five Table I semirings (standard arithmetic, max-plus, min-max, GF(2),
// and — in package setalg — the power-set algebra).
//
// Where the C API enumerates suffixed names (GrB_PLUS_INT32, GrB_PLUS_FP32,
// …), this binding provides generic constructors (Plus[int32](),
// Plus[float32]()); the exact Table IV names are also exported as variables
// for parity with the paper's example code.
package builtins

import (
	"math"

	"graphblas/internal/core"
	"graphblas/internal/sparse"
)

// Number is the constraint covering the built-in numeric GraphBLAS domains.
type Number interface {
	int | int8 | int16 | int32 | int64 |
		uint | uint8 | uint16 | uint32 | uint64 |
		float32 | float64
}

// Integer is the constraint covering the integer domains.
type Integer interface {
	int | int8 | int16 | int32 | int64 |
		uint | uint8 | uint16 | uint32 | uint64
}

// Float is the constraint covering the floating-point domains.
type Float interface{ float32 | float64 }

// Ordered is the constraint for domains with a total order.
type Ordered = Number

// --- binary operators -------------------------------------------------

// Every binary operator here is made by core.PredefinedBinaryOp, which gives
// it the opcode the kernels specialize on; its F must compute exactly what
// that opcode names.

// Plus returns the addition operator x + y (GrB_PLUS_T).
func Plus[T Number]() core.BinaryOp[T, T, T] {
	return core.PredefinedBinaryOp(sparse.OpPlus, "plus", func(x, y T) T { return x + y })
}

// Times returns the multiplication operator x * y (GrB_TIMES_T).
func Times[T Number]() core.BinaryOp[T, T, T] {
	return core.PredefinedBinaryOp(sparse.OpTimes, "times", func(x, y T) T { return x * y })
}

// Minus returns the subtraction operator x - y (GrB_MINUS_T).
func Minus[T Number]() core.BinaryOp[T, T, T] {
	return core.PredefinedBinaryOp(sparse.OpMinus, "minus", func(x, y T) T { return x - y })
}

// Div returns the division operator x / y (GrB_DIV_T). Integer division by
// zero follows Go semantics (panic); floating division follows IEEE-754.
func Div[T Number]() core.BinaryOp[T, T, T] {
	return core.PredefinedBinaryOp(sparse.OpDiv, "div", func(x, y T) T { return x / y })
}

// Min returns the minimum operator (GrB_MIN_T).
func Min[T Ordered]() core.BinaryOp[T, T, T] {
	return core.PredefinedBinaryOp(sparse.OpMin, "min", func(x, y T) T {
		if y < x {
			return y
		}
		return x
	})
}

// Max returns the maximum operator (GrB_MAX_T).
func Max[T Ordered]() core.BinaryOp[T, T, T] {
	return core.PredefinedBinaryOp(sparse.OpMax, "max", func(x, y T) T {
		if y > x {
			return y
		}
		return x
	})
}

// First returns the operator selecting its first argument (GrB_FIRST_T).
func First[T any]() core.BinaryOp[T, T, T] { return FirstOf[T, T]() }

// Second returns the operator selecting its second argument (GrB_SECOND_T).
func Second[T any]() core.BinaryOp[T, T, T] { return SecondOf[T, T]() }

// FirstOf returns first over mixed domains, X × Y → X (GraphBLAS 2.0's
// GrB_FIRST_T with a typecast second operand): the value of the first
// argument, whatever the second holds — a label carried across an edge of
// any type.
func FirstOf[X, Y any]() core.BinaryOp[X, Y, X] {
	return core.PredefinedBinaryOp(sparse.OpFirst, "first", func(x X, _ Y) X { return x })
}

// SecondOf returns second over mixed domains, X × Y → Y.
func SecondOf[X, Y any]() core.BinaryOp[X, Y, Y] {
	return core.PredefinedBinaryOp(sparse.OpSecond, "second", func(_ X, y Y) Y { return y })
}

// Pair returns the operator that is 1 whatever its arguments hold
// (GrB_ONEB_T): ⟨+, pair⟩ counts the entries two structures share.
func Pair[X, Y any, Z Number]() core.BinaryOp[X, Y, Z] {
	return core.PredefinedBinaryOp(sparse.OpPair, "pair", func(X, Y) Z { return 1 })
}

// AbsDiff returns |x − y|. For the floats it is math.Abs(x - y), bit for bit
// (the sign of a zero or a NaN cleared); for the unsigned integers it does
// not wrap.
func AbsDiff[T Number]() core.BinaryOp[T, T, T] {
	f := func(x, y T) T {
		if x < y {
			return y - x
		}
		return x - y
	}
	switch g := any(&f).(type) {
	case *func(float64, float64) float64:
		*g = func(x, y float64) float64 { return math.Abs(x - y) }
	case *func(float32, float32) float32:
		*g = func(x, y float32) float32 { return float32(math.Abs(float64(x - y))) }
	}
	return core.PredefinedBinaryOp(sparse.OpAbsDiff, "absdiff", f)
}

// --- comparison operators (result domain bool) ------------------------

// Eq returns x == y (GrB_EQ_T).
func Eq[T Number]() core.BinaryOp[T, T, bool] {
	return core.PredefinedBinaryOp(sparse.OpEq, "eq", func(x, y T) bool { return x == y })
}

// Ne returns x != y (GrB_NE_T).
func Ne[T Number]() core.BinaryOp[T, T, bool] {
	return core.PredefinedBinaryOp(sparse.OpNe, "ne", func(x, y T) bool { return x != y })
}

// Lt returns x < y (GrB_LT_T).
func Lt[T Ordered]() core.BinaryOp[T, T, bool] {
	return core.PredefinedBinaryOp(sparse.OpLt, "lt", func(x, y T) bool { return x < y })
}

// Gt returns x > y (GrB_GT_T).
func Gt[T Ordered]() core.BinaryOp[T, T, bool] {
	return core.PredefinedBinaryOp(sparse.OpGt, "gt", func(x, y T) bool { return x > y })
}

// Le returns x <= y (GrB_LE_T).
func Le[T Ordered]() core.BinaryOp[T, T, bool] {
	return core.PredefinedBinaryOp(sparse.OpLe, "le", func(x, y T) bool { return x <= y })
}

// Ge returns x >= y (GrB_GE_T).
func Ge[T Ordered]() core.BinaryOp[T, T, bool] {
	return core.PredefinedBinaryOp(sparse.OpGe, "ge", func(x, y T) bool { return x >= y })
}

// --- logical operators -------------------------------------------------

// LOr returns logical or (GrB_LOR).
func LOr() core.BinaryOp[bool, bool, bool] {
	return core.PredefinedBinaryOp(sparse.OpLOr, "lor", func(x, y bool) bool { return x || y })
}

// LAnd returns logical and (GrB_LAND).
func LAnd() core.BinaryOp[bool, bool, bool] {
	return core.PredefinedBinaryOp(sparse.OpLAnd, "land", func(x, y bool) bool { return x && y })
}

// LXor returns logical exclusive or (GrB_LXOR) — the GF(2) addition of
// Table I.
func LXor() core.BinaryOp[bool, bool, bool] {
	return core.PredefinedBinaryOp(sparse.OpLXor, "lxor", func(x, y bool) bool { return x != y })
}

// --- unary operators ----------------------------------------------------

// Identity returns the identity unary operator (GrB_IDENTITY_T).
func Identity[T any]() core.UnaryOp[T, T] {
	return core.UnaryOp[T, T]{Name: "identity", F: func(x T) T { return x }}
}

// AInv returns the additive inverse -x (GrB_AINV_T).
func AInv[T Number]() core.UnaryOp[T, T] {
	return core.UnaryOp[T, T]{Name: "ainv", F: func(x T) T { return -x }}
}

// MInv returns the multiplicative inverse 1/x (GrB_MINV_T; Figure 3 line
// 57 uses the FP32 instance).
func MInv[T Float]() core.UnaryOp[T, T] {
	return core.UnaryOp[T, T]{Name: "minv", F: func(x T) T { return 1 / x }}
}

// LNot returns logical negation (GrB_LNOT).
func LNot() core.UnaryOp[bool, bool] {
	return core.UnaryOp[bool, bool]{Name: "lnot", F: func(x bool) bool { return !x }}
}

// Abs returns the absolute value (GxB_ABS_T extension).
func Abs[T Number]() core.UnaryOp[T, T] {
	return core.UnaryOp[T, T]{Name: "abs", F: func(x T) T {
		if x < 0 {
			return -x
		}
		return x
	}}
}

// One returns the constant-one unary operator (GxB_ONE_T extension), useful
// for converting any structure into a uniform pattern.
func One[T Number]() core.UnaryOp[T, T] {
	return core.UnaryOp[T, T]{Name: "one", F: func(T) T { return 1 }}
}

// Cast returns the unary operator converting between numeric domains — the
// explicit form of the C API's implicit typecasts (e.g. the
// GrB_IDENTITY_BOOL cast of Figure 3 line 41 becomes CastToBool).
func Cast[From, To Number]() core.UnaryOp[From, To] {
	return core.UnaryOp[From, To]{Name: "cast", F: func(x From) To { return To(x) }}
}

// CastToBool converts a numeric domain to bool with the C rule v != 0.
func CastToBool[From Number]() core.UnaryOp[From, bool] {
	return core.UnaryOp[From, bool]{Name: "cast_bool", F: func(x From) bool { return x != 0 }}
}

// CastBoolTo converts bool to a numeric domain (false→0, true→1).
func CastBoolTo[To Number]() core.UnaryOp[bool, To] {
	return core.UnaryOp[bool, To]{Name: "cast_from_bool", F: func(x bool) To {
		if x {
			return 1
		}
		return 0
	}}
}

// --- extreme values (monoid identities) ---------------------------------

// MaxValue returns the largest representable value of the domain (+Inf for
// floats): the identity of the Min monoid and the "∞" of Table I's min-max
// algebra.
func MaxValue[T Number]() T {
	var z T
	switch any(z).(type) {
	case int:
		v := int(math.MaxInt)
		return T(v)
	case int8:
		v := int8(math.MaxInt8)
		return T(v)
	case int16:
		v := int16(math.MaxInt16)
		return T(v)
	case int32:
		v := int32(math.MaxInt32)
		return T(v)
	case int64:
		v := int64(math.MaxInt64)
		return T(v)
	case uint:
		v := uint(math.MaxUint)
		return T(v)
	case uint8:
		v := uint8(math.MaxUint8)
		return T(v)
	case uint16:
		v := uint16(math.MaxUint16)
		return T(v)
	case uint32:
		v := uint32(math.MaxUint32)
		return T(v)
	case uint64:
		v := uint64(math.MaxUint64)
		return T(v)
	case float32:
		v := float32(math.Inf(1))
		return T(v)
	case float64:
		return T(math.Inf(1))
	}
	return z
}

// MinValue returns the smallest representable value of the domain (-Inf for
// floats): the identity of the Max monoid and the "-∞" of Table I's
// max-plus algebra.
func MinValue[T Number]() T {
	var z T
	switch any(z).(type) {
	case int:
		v := int(math.MinInt)
		return T(v)
	case int8:
		v := int8(math.MinInt8)
		return T(v)
	case int16:
		v := int16(math.MinInt16)
		return T(v)
	case int32:
		v := int32(math.MinInt32)
		return T(v)
	case int64:
		v := int64(math.MinInt64)
		return T(v)
	case uint, uint8, uint16, uint32, uint64:
		return 0
	case float32:
		v := float32(math.Inf(-1))
		return T(v)
	case float64:
		return T(math.Inf(-1))
	}
	return z
}

// --- monoids -------------------------------------------------------------

// mustMonoid wraps NewMonoid for statically correct constructions.
func mustMonoid[T any](op core.BinaryOp[T, T, T], id T) core.Monoid[T] {
	m, err := core.NewMonoid(op, id)
	if err != nil {
		panic(err)
	}
	return m
}

// PlusMonoid returns ⟨T, +, 0⟩ (Figure 3 line 10 builds the int32
// instance).
func PlusMonoid[T Number]() core.Monoid[T] { return mustMonoid(Plus[T](), 0) }

// TimesMonoid returns ⟨T, *, 1⟩ (Figure 3 line 51).
func TimesMonoid[T Number]() core.Monoid[T] { return mustMonoid(Times[T](), 1) }

// MinMonoid returns ⟨T, min, +∞⟩; the domain minimum is its terminal
// (annihilator) value, enabling early-exit reductions.
func MinMonoid[T Number]() core.Monoid[T] {
	m := mustMonoid(Min[T](), MaxValue[T]())
	term := MinValue[T]()
	m.Terminal = func(v T) bool { return v == term }
	return m
}

// MaxMonoid returns ⟨T, max, -∞⟩; the domain maximum is its terminal value.
func MaxMonoid[T Number]() core.Monoid[T] {
	m := mustMonoid(Max[T](), MinValue[T]())
	term := MaxValue[T]()
	m.Terminal = func(v T) bool { return v == term }
	return m
}

// LOrMonoid returns ⟨bool, ∨, false⟩; true is its terminal value.
func LOrMonoid() core.Monoid[bool] {
	m := mustMonoid(LOr(), false)
	m.Terminal = func(v bool) bool { return v }
	return m
}

// LAndMonoid returns ⟨bool, ∧, true⟩; false is its terminal value.
func LAndMonoid() core.Monoid[bool] {
	m := mustMonoid(LAnd(), true)
	m.Terminal = func(v bool) bool { return !v }
	return m
}

// LXorMonoid returns ⟨bool, ⊻, false⟩ — GF(2) addition.
func LXorMonoid() core.Monoid[bool] { return mustMonoid(LXor(), false) }

// --- semirings (Table I and friends) -------------------------------------

// mustSemiring wraps NewSemiring for statically correct constructions.
func mustSemiring[D1, D2, D3 any](add core.Monoid[D3], mul core.BinaryOp[D1, D2, D3]) core.Semiring[D1, D2, D3] {
	s, err := core.NewSemiring(add, mul)
	if err != nil {
		panic(err)
	}
	return s
}

// PlusTimes returns the standard arithmetic semiring ⟨+, ×, 0⟩ — Table I
// row 1 and the Int32AddMul / FP32AddMul semirings of Figure 3.
func PlusTimes[T Number]() core.Semiring[T, T, T] {
	return mustSemiring(PlusMonoid[T](), Times[T]())
}

// MaxPlus returns the max-plus algebra ⟨max, +, -∞⟩ — Table I row 2
// (longest/critical paths).
func MaxPlus[T Number]() core.Semiring[T, T, T] {
	return mustSemiring(MaxMonoid[T](), Plus[T]())
}

// MinPlus returns the tropical semiring ⟨min, +, +∞⟩ (shortest paths); the
// dual of Table I row 2 and the workhorse of the SSSP example.
func MinPlus[T Number]() core.Semiring[T, T, T] {
	return mustSemiring(MinMonoid[T](), Plus[T]())
}

// MinMax returns the min-max algebra ⟨min, max, +∞⟩ — Table I row 3
// (minimax/bottleneck paths).
func MinMax[T Number]() core.Semiring[T, T, T] {
	return mustSemiring(MinMonoid[T](), Max[T]())
}

// MaxMin returns the max-min (bottleneck capacity) semiring ⟨max, min, -∞⟩.
func MaxMin[T Number]() core.Semiring[T, T, T] {
	return mustSemiring(MaxMonoid[T](), Min[T]())
}

// MinTimes returns ⟨min, ×, +∞⟩.
func MinTimes[T Number]() core.Semiring[T, T, T] {
	return mustSemiring(MinMonoid[T](), Times[T]())
}

// MinFirst returns ⟨min, first, +∞⟩, used by BFS-parent computations.
func MinFirst[T Number]() core.Semiring[T, T, T] {
	return mustSemiring(MinMonoid[T](), First[T]())
}

// XorAnd returns the GF(2) Galois-field semiring ⟨xor, and, false⟩ —
// Table I row 4.
func XorAnd() core.Semiring[bool, bool, bool] {
	return mustSemiring(LXorMonoid(), LAnd())
}

// LorLand returns the boolean semiring ⟨∨, ∧, false⟩ used for structural
// reachability (unweighted BFS).
func LorLand() core.Semiring[bool, bool, bool] {
	return mustSemiring(LOrMonoid(), LAnd())
}

// PlusFirst returns ⟨+, first, 0⟩: counts paths by propagating the
// left operand, used when the right structure is only a pattern.
func PlusFirst[T Number]() core.Semiring[T, T, T] {
	return mustSemiring(PlusMonoid[T](), First[T]())
}

// PlusSecond returns ⟨+, second, 0⟩.
func PlusSecond[T Number]() core.Semiring[T, T, T] {
	return mustSemiring(PlusMonoid[T](), Second[T]())
}

// --- Table IV named instances --------------------------------------------

// The paper's example uses these exact predefined operators (Table IV).
var (
	// TimesINT32 is GrB_TIMES_INT32.
	TimesINT32 = Times[int32]()
	// PlusINT32 is GrB_PLUS_INT32.
	PlusINT32 = Plus[int32]()
	// PlusFP32 is GrB_PLUS_FP32.
	PlusFP32 = Plus[float32]()
	// TimesFP32 is GrB_TIMES_FP32.
	TimesFP32 = Times[float32]()
	// MInvFP32 is GrB_MINV_FP32.
	MInvFP32 = MInv[float32]()
	// IdentityBOOL is GrB_IDENTITY_BOOL.
	IdentityBOOL = Identity[bool]()
)
