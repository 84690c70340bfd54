package sparse

import "unsafe"

// This file holds the loops the element-wise kernels run when their
// operator is predefined: eWiseAdd's and eWiseMult's index merges and their
// array loops over a full operand, a reduce's fold, and the scatter of an
// accumulating fill (kernels_vec.go). The merges and the fold serve the
// matrix kernels too, a row at a time (kernels_mat.go). As builtin.go does
// for the products, a kernel asks once per call (opLoops) for the loops
// compiled for the operator over its output domain's T, which view the
// operands as []T, and runs them. Each loop applies the operator to the
// operands its closure loop applies it to, in the same order and with the
// same argument order, and writes the same positions, so the results are
// the closure loop's bit for bit; an operator or a domain no loop covers
// stays on the closure loop.

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

// vecLoops is one operator ⊙ compiled over T, as a kernel whose output
// domain is DC sees it: the inner loop of each element-wise kernel.
// Operands in DC come typed; the others come as operands, or, to the merge
// a matrix kernel runs per row, as the address of the row's first value,
// which costs no test of the domain per row. A kernel asks for the loops
// once per call (opLoops) and runs them once per vector or matrix row.
type vecLoops[DC any] interface {
	union(aIdx []int, aVal []DC, bIdx []int, bVal []DC, idx []int, val []DC) int
	intersect(aIdx []int, aVal unsafe.Pointer, bIdx []int, bVal unsafe.Pointer, idx []int, val []DC) int
	intoLeft(at []int, x, w []DC)
	intoRight(at []int, y, w []DC)
	pickLeft(at []int, x, y operand, w []DC)
	pickRight(at []int, x, y operand, w []DC)
	reduce(acc DC, vals []DC) DC
}

// vecOps implements vecLoops for ⊙ = M over T, DC being T's domain (T
// itself, or bool for boolean). It has no fields: the operator is in its
// type.
type vecOps[T number, DC any, M mulTag] struct{}

// cast is s, one of a kernel's []DC, as []T: DC is T's domain, so the two
// lay a value out alike.
func cast[T, DC any](s []DC) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// union is the eWiseAdd merge of (aIdx, aVal) and (bIdx, bVal), written by
// position into idx and val, which have room for both: a position in both
// gets a ⊙ b, a position in one keeps its value. It walks a and advances b
// to each of a's positions — the merge's shape that keeps its state in
// registers — and returns the merged length.
//
//grblint:hotpath
func (*vecOps[T, DC, M]) union(aIdx []int, aValDC []DC, bIdx []int, bValDC []DC, idx []int, valDC []DC) int {
	aVal, bVal, val := cast[T](aValDC), cast[T](bValDC), cast[T](valDC)
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
// written by position into idx and val, walking a as union does. x and y
// point at the values of a and b, which are T's where ⊙ reads them (loops
// checked); an operand ⊙ does not read may be outside T's domain and is
// not looked at. It returns the merged length.
//
//grblint:hotpath
func (*vecOps[T, DC, M]) intersect(aIdx []int, x unsafe.Pointer, bIdx []int, y unsafe.Pointer, idx []int, valDC []DC) int {
	var aVal, bVal []T
	if readsX[M]() {
		aVal = unsafe.Slice((*T)(x), len(aIdx))
	}
	if readsY[M]() {
		bVal = unsafe.Slice((*T)(y), len(bIdx))
	}
	val := cast[T](valDC)
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
func (*vecOps[T, DC, M]) intoLeft(at []int, xDC, wDC []DC) {
	x, w := cast[T](xDC)[:len(at)], cast[T](wDC)
	for k, i := range at {
		w[i] = unsigned[M](odot[M](x[k], w[i]), x[k], w[i])
	}
}

// intoRight is w(i) = w(i) ⊙ y(k) at every position i = at[k]: a union
// whose left operand is full, w holding its values.
//
//grblint:hotpath
func (*vecOps[T, DC, M]) intoRight(at []int, yDC, wDC []DC) {
	y, w := cast[T](yDC)[:len(at)], cast[T](wDC)
	for k, i := range at {
		w[i] = unsigned[M](odot[M](w[i], y[k]), w[i], y[k])
	}
}

// pickLeft is w(k) = x(at[k]) ⊙ y(k): an intersection whose left operand
// x is full, walking the right one's positions at.
//
//grblint:hotpath
func (*vecOps[T, DC, M]) pickLeft(at []int, xo, yo operand, wDC []DC) {
	x, y, w := as[T](xo), as[T](yo), cast[T](wDC)[:len(at)]
	for k, i := range at {
		a, b := operands[M](x, i, y, k)
		w[k] = unsigned[M](odot[M](a, b), a, b)
	}
}

// pickRight is w(k) = x(k) ⊙ y(at[k]): an intersection whose right operand
// y is full, walking the left one's positions at.
//
//grblint:hotpath
func (*vecOps[T, DC, M]) pickRight(at []int, xo, yo operand, wDC []DC) {
	x, y, w := as[T](xo), as[T](yo), cast[T](wDC)[:len(at)]
	for k, i := range at {
		a, b := operands[M](x, k, y, i)
		w[k] = unsigned[M](odot[M](a, b), a, b)
	}
}

// reduce folds vals into acc from the left (foldLoop). acc crosses as T by
// its bits, outside the loop, which keeps acc in a register.
func (*vecOps[T, DC, M]) reduce(acc DC, vals []DC) DC {
	r := foldLoop[T, M](*(*T)(unsafe.Pointer(&acc)), cast[T](vals))
	return *(*DC)(unsafe.Pointer(&r))
}

// foldLoop is reduce's fold. Under min and max (∧ and ∨ over bool) it
// stops at the domain's bound, which no later term can move, as the
// product loops stop at ⊕'s terminal value.
//
//grblint:hotpath
func foldLoop[T number, M mulTag](acc T, vals []T) T {
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

// reduceUntil is foldLoop's fold that stops once acc is stop, tested before
// each term; a function of its own so that the fold keeps its registers.
//
//grblint:hotpath
func reduceUntil[T number, M mulTag](acc T, vals []T, stop T) T {
	for p := 0; p < len(vals) && acc != stop; p++ {
		acc = unsigned[M](odot[M](acc, vals[p]), acc, vals[p])
	}
	return acc
}

// opLoops returns the loops for the operator op of a kernel whose operands
// are in DA and DB and whose output is in DC, or nil when op is a user's,
// DC a domain no loop is compiled for, or no loop covers the operator and
// operands. A kernel asks once per call; a user's operator costs it one
// compare.
func opLoops[DC, DA, DB any](op Opcode) vecLoops[DC] {
	if op == OpNone {
		return nil
	}
	e := domainOf[DC]()
	if e == nil {
		return nil
	}
	return e.loops(op, kindOf[DA](), kindOf[DB]())
}

// loops returns the loops for op over T. They are compiled for every
// predefined operator whose domains are T's — first, second, pair, +, −, ×,
// ÷, min, max and |x − y|, and over bool ∧, ∨ and ⊻ — not for the
// comparisons, whose result is bool. An operator that reads an operand
// outside T's domain (x and y are the operands' kinds) has none.
func (*domain[T, DC]) loops(op Opcode, x, y kind) vecLoops[DC] {
	var l vecLoops[DC]
	var needX, needY bool
	switch lattice(op) {
	case OpFirst:
		l, needX = &vecOps[T, DC, mulFirst]{}, true
	case OpSecond:
		l, needY = &vecOps[T, DC, mulSecond]{}, true
	case OpPair:
		l = &vecOps[T, DC, mulPair]{}
	case OpPlus:
		l, needX, needY = &vecOps[T, DC, mulPlus]{}, true, true
	case OpMinus:
		l, needX, needY = &vecOps[T, DC, mulMinus]{}, true, true
	case OpTimes:
		l, needX, needY = &vecOps[T, DC, mulTimes]{}, true, true
	case OpDiv:
		l, needX, needY = &vecOps[T, DC, mulDiv]{}, true, true
	case OpMin:
		l, needX, needY = &vecOps[T, DC, mulMin]{}, true, true
	case OpMax:
		l, needX, needY = &vecOps[T, DC, mulMax]{}, true, true
	case OpAbsDiff:
		l, needX, needY = &vecOps[T, DC, mulAbsDiff]{}, true, true
	case OpLXor: // over 0 and 1, x ⊻ y is |x − y|
		l, needX, needY = &vecOps[T, DC, mulAbsDiff]{}, true, true
	default:
		return nil
	}
	if needX && x != kindOf[T]() || needY && y != kindOf[T]() {
		return nil
	}
	return l
}
