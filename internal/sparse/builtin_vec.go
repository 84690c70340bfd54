package sparse

import "unsafe"

// This file holds the loops the vector element-wise kernels run when their
// operator is predefined: eWiseAdd's and eWiseMult's index merges and their
// array loops over a full operand, a reduce's fold, and the scatter of an
// accumulating fill (kernels_vec.go). As builtin.go does for the products,
// a kernel asks opEntry once per call; the entry views the operands as []T,
// looks up the loops compiled for the operator over T and runs them. Each
// loop applies the operator to the operands its closure loop applies it to,
// in the same order and with the same argument order, and writes the same
// positions, so the results are the closure loop's bit for bit; an
// operator or a domain no loop covers stays on the closure loop.

// odot is x ⊙ y as the predefined element-wise operator computes it, but
// for |x − y|, of which it computes x − y and unsigned the rest: a loop
// applies ⊙ as unsigned(odot(x, y), x, y). min and max are otimes's, and an
// integer ÷ by zero panics as x / y does. odot repeats otimes's cases
// instead of extending them because the inliner prices a helper's whole
// switch, not the case a tag keeps: one helper doing all of it would not be
// inlined, and a call per element is what the loops exist to remove.
func odot[M mulTag, T number](x, y T) T {
	var m M
	switch len(m) {
	case len(mulFirst{}):
		return x
	case len(mulSecond{}):
		return y
	case len(mulPair{}):
		return 1
	case len(mulTimes{}):
		return x * y
	case len(mulPlus{}):
		return x + y
	case len(mulDiv{}):
		return x / y
	case len(mulMin{}):
		if y < x {
			return y
		}
		return x
	case len(mulMax{}):
		if y > x {
			return y
		}
		return x
	}
	return x - y
}

// unsigned finishes odot's v = x − y into |x − y|; under any other operator
// it returns v as it is. In a float domain — T(1)/2 is nonzero only there —
// it clears the sign bit, which is math.Abs(x − y), −0 and NaN payloads
// included, and takes no branch on the values. In an integer domain it is
// y − x when x < y, the operator's wrapping definition (−v is y − x,
// wrapped); over bool's 0 and 1 that is ⊻. The bits are cleared here, not
// by a call to math.Abs: a package that instantiates the loops without
// importing math cannot inline it, and the call would cost unsigned its own
// inlining.
func unsigned[M mulTag, T number](v, x, y T) T {
	var m M
	switch {
	case len(m) != len(mulAbsDiff{}):
		return v
	case T(1)/2 != 0:
		f := float64(v)
		b := *(*uint64)(unsafe.Pointer(&f)) &^ (1 << 63)
		return T(*(*float64)(unsafe.Pointer(&b)))
	case x < y:
		return -v
	}
	return v
}

// vecLoops is one operator ⊙ compiled over T: the inner loop of each
// element-wise kernel.
type vecLoops[T number] interface {
	union(aIdx []int, aVal []T, bIdx []int, bVal []T, idx []int, val []T) int
	intersect(aIdx []int, aVal []T, bIdx []int, bVal []T, idx []int, val []T) int
	intoLeft(at []int, x, w []T)
	intoRight(at []int, y, w []T)
	pickLeft(at []int, x, y, w []T)
	pickRight(at []int, x, y, w []T)
	reduce(acc T, vals []T) T
}

// vecOps implements vecLoops for ⊙ = M over T. It has no fields: the
// operator is in its type.
type vecOps[T number, M mulTag] struct{}

// union is the eWiseAdd merge of (aIdx, aVal) and (bIdx, bVal), written by
// position into idx and val, which have room for both: a position in both
// gets a ⊙ b, a position in one keeps its value. It walks a and advances b
// to each of a's positions — the merge's shape that keeps its state in
// registers — and returns the merged length.
//
//grblint:hotpath
func (*vecOps[T, M]) union(aIdx []int, aVal []T, bIdx []int, bVal []T, idx []int, val []T) int {
	n, pb := 0, 0
	for pa, i := range aIdx {
		for pb < len(bIdx) && bIdx[pb] < i {
			idx[n], val[n] = bIdx[pb], bVal[pb]
			n++
			pb++
		}
		v := aVal[pa]
		if pb < len(bIdx) && bIdx[pb] == i {
			v = unsigned[M](odot[M](v, bVal[pb]), v, bVal[pb])
			pb++
		}
		idx[n], val[n] = i, v
		n++
	}
	return n + copyRun(bIdx[pb:], bVal[pb:], idx[n:], val[n:])
}

// intersect is the eWiseMult merge: a ⊙ b at the positions both store,
// written by position into idx and val, walking a as union does. An operand
// ⊙ does not read may be nil. It returns the merged length.
//
//grblint:hotpath
func (*vecOps[T, M]) intersect(aIdx []int, aVal []T, bIdx []int, bVal []T, idx []int, val []T) int {
	n, pb := 0, 0
	for pa, i := range aIdx {
		for pb < len(bIdx) && bIdx[pb] < i {
			pb++
		}
		if pb == len(bIdx) {
			break
		}
		if bIdx[pb] == i {
			x, y := operands[M](aVal, pa, bVal, pb)
			idx[n], val[n] = i, unsigned[M](odot[M](x, y), x, y)
			n++
			pb++
		}
	}
	return n
}

// intoLeft is w(i) = x(k) ⊙ w(i) at every position i = at[k]: a union
// whose right operand is full, w holding its values.
//
//grblint:hotpath
func (*vecOps[T, M]) intoLeft(at []int, x, w []T) {
	x = x[:len(at)]
	for k, i := range at {
		w[i] = unsigned[M](odot[M](x[k], w[i]), x[k], w[i])
	}
}

// intoRight is w(i) = w(i) ⊙ y(k) at every position i = at[k]: a union
// whose left operand is full, w holding its values.
//
//grblint:hotpath
func (*vecOps[T, M]) intoRight(at []int, y, w []T) {
	y = y[:len(at)]
	for k, i := range at {
		w[i] = unsigned[M](odot[M](w[i], y[k]), w[i], y[k])
	}
}

// pickLeft is w(k) = x(at[k]) ⊙ y(k): an intersection whose left operand
// x is full, walking the right one's positions at.
//
//grblint:hotpath
func (*vecOps[T, M]) pickLeft(at []int, x, y, w []T) {
	w = w[:len(at)]
	for k, i := range at {
		a, b := operands[M](x, i, y, k)
		w[k] = unsigned[M](odot[M](a, b), a, b)
	}
}

// pickRight is w(k) = x(k) ⊙ y(at[k]): an intersection whose right operand
// y is full, walking the left one's positions at.
//
//grblint:hotpath
func (*vecOps[T, M]) pickRight(at []int, x, y, w []T) {
	w = w[:len(at)]
	for k, i := range at {
		a, b := operands[M](x, k, y, i)
		w[k] = unsigned[M](odot[M](a, b), a, b)
	}
}

// reduce folds vals into acc from the left. Under min and max (∧ and ∨
// over bool) the fold stops at the domain's bound, which no later term can
// move, as the product loops stop at ⊕'s terminal value.
//
//grblint:hotpath
func (*vecOps[T, M]) reduce(acc T, vals []T) T {
	var m M
	if len(m) == len(mulMin{}) || len(m) == len(mulMax{}) {
		lo, hi := bounds[T]()
		if len(m) == len(mulMin{}) {
			return reduceUntil[T, M](acc, vals, lo)
		}
		return reduceUntil[T, M](acc, vals, hi)
	}
	for _, v := range vals {
		acc = unsigned[M](odot[M](acc, v), acc, v)
	}
	return acc
}

// reduceUntil is reduce's fold that stops once acc is stop, tested before
// each term; a function of its own so that the fold keeps its registers.
//
//grblint:hotpath
func reduceUntil[T number, M mulTag](acc T, vals []T, stop T) T {
	for p := 0; p < len(vals) && acc != stop; p++ {
		acc = unsigned[M](odot[M](acc, vals[p]), acc, vals[p])
	}
	return acc
}

// vecLookup returns the loops for the operator op over T, or nil when none
// are compiled. They are compiled for every predefined operator whose
// domains are T's: first, second, pair, +, −, ×, ÷, min, max and |x − y|,
// and over bool ∧, ∨ and ⊻ — not for the comparisons, whose result is
// bool. hasX and hasY say whether the kernel can hand the operands over as
// []T, as in lookup.
func vecLookup[T number](op Opcode, hasX, hasY bool) vecLoops[T] {
	var l vecLoops[T]
	var x, y bool
	switch lattice(op) {
	case OpFirst:
		l, x = &vecOps[T, mulFirst]{}, true
	case OpSecond:
		l, y = &vecOps[T, mulSecond]{}, true
	case OpPair:
		l = &vecOps[T, mulPair]{}
	case OpPlus:
		l, x, y = &vecOps[T, mulPlus]{}, true, true
	case OpMinus:
		l, x, y = &vecOps[T, mulMinus]{}, true, true
	case OpTimes:
		l, x, y = &vecOps[T, mulTimes]{}, true, true
	case OpDiv:
		l, x, y = &vecOps[T, mulDiv]{}, true, true
	case OpMin:
		l, x, y = &vecOps[T, mulMin]{}, true, true
	case OpMax:
		l, x, y = &vecOps[T, mulMax]{}, true, true
	case OpAbsDiff:
		l, x, y = &vecOps[T, mulAbsDiff]{}, true, true
	case OpLXor: // over 0 and 1, x ⊻ y is |x − y|
		l, x, y = &vecOps[T, mulAbsDiff]{}, true, true
	default:
		return nil
	}
	if x && !hasX || y && !hasY {
		return nil
	}
	return l
}

// opEntry returns the entry of an element-wise kernel whose operator is op
// and whose output domain is DC, or nil when op is a user's or DC a domain
// no loop is compiled for.
func opEntry[DC any](op Opcode) entry[DC] {
	if op == OpNone {
		return nil
	}
	return domainOf[DC]()
}

// The element-wise entry methods, each reporting false, having done
// nothing, when no loop covers the call. Operands in the output domain come
// typed, the others as operands.

func (*domain[T, DC]) union(op Opcode, a, b *Vec[DC], idx []int, val []DC) (int, bool) {
	l := vecLookup[T](op, true, true)
	if l == nil {
		return 0, false
	}
	return l.union(a.Idx, view[T](a.Val), b.Idx, view[T](b.Val), idx, view[T](val)), true
}

func (*domain[T, DC]) intersect(op Opcode, aIdx []int, aVal operand, bIdx []int, bVal operand, idx []int, val []DC) (int, bool) {
	l := vecLookup[T](op, is[T](aVal), is[T](bVal))
	if l == nil {
		return 0, false
	}
	return l.intersect(aIdx, as[T](aVal), bIdx, as[T](bVal), idx, view[T](val)), true
}

func (*domain[T, DC]) intoLeft(op Opcode, a *Vec[DC], w []DC) bool {
	l := vecLookup[T](op, true, true)
	if l == nil {
		return false
	}
	l.intoLeft(a.Idx, view[T](a.Val), view[T](w))
	return true
}

func (*domain[T, DC]) intoRight(op Opcode, b *Vec[DC], w []DC) bool {
	l := vecLookup[T](op, true, true)
	if l == nil {
		return false
	}
	l.intoRight(b.Idx, view[T](b.Val), view[T](w))
	return true
}

// pickLeft is w(k) = x(at[k]) ⊙ y(k), x full; pickRight w(k) = x(k) ⊙
// y(at[k]), y full.
func (*domain[T, DC]) pickLeft(op Opcode, at []int, x, y operand, w []DC) bool {
	l := vecLookup[T](op, is[T](x), is[T](y))
	if l == nil {
		return false
	}
	l.pickLeft(at, as[T](x), as[T](y), view[T](w))
	return true
}

func (*domain[T, DC]) pickRight(op Opcode, at []int, x, y operand, w []DC) bool {
	l := vecLookup[T](op, is[T](x), is[T](y))
	if l == nil {
		return false
	}
	l.pickRight(at, as[T](x), as[T](y), view[T](w))
	return true
}

// reduce passes acc across as T by its bits: DC is T's domain, so the two
// lay a value out alike.
func (*domain[T, DC]) reduce(op Opcode, acc DC, vals []DC) (DC, bool) {
	l := vecLookup[T](op, true, true)
	if l == nil {
		return acc, false
	}
	r := l.reduce(*(*T)(unsafe.Pointer(&acc)), view[T](vals))
	return *(*DC)(unsafe.Pointer(&r)), true
}
