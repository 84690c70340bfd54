package sparse

import (
	"math"
	"math/bits"
	"unsafe"
)

// This file holds the loops the kernels run when their semiring is
// predefined. A kernel asks entryFor for its output domain once per call; the
// entry views the operands as []T, looks up the loops compiled for
// (MulOp, AddOp) over T once per chunk (lookup), and runs them. Operands
// outside the output domain reach it erased (operand), so the entry is
// compiled once per domain, not once per kernel instantiation. Each loop
// folds in the order the kernel's closure loop does — the first term starts
// the fold, terms follow in ascending position — so the results are the
// closure loop's, bit for bit, and a (⊗, ⊕, domain) no loop covers simply
// stays on the closure loop.

// number is the set of domains the loops are compiled for. bool runs them as
// boolean.
type number interface {
	int | int32 | int64 | float32 | float64 | boolean
}

// boolean is bool as the loops compute with it: a byte that is 0 or 1, on
// which ∧ is min and ∨ is max. A bool holds the same bits, so view reads and
// writes a []bool in place.
type boolean uint8

// The loops take ⊗ and ⊕ as type arguments, not as values. Each tag is an
// array type of its own length, so every instantiation of a loop has a GC
// shape of its own and is compiled on its own, and in it len of a tag — what
// otimes and oplus switch on — is a constant the compiler folds away. What is
// left is the operator inline as machine instructions, with no call per flop.
type (
	mulFirst  [1]struct{}
	mulSecond [2]struct{}
	mulPair   [3]struct{}
	mulTimes  [4]struct{}
	mulPlus   [5]struct{}
	mulMin    [6]struct{}
	mulMax    [7]struct{}
	// min and max again, their operands swapped: what a Swapped ring's ⊗
	// computes. (min(x, NaN) is x but min(NaN, x) is NaN, and ±0 tie the
	// same way, so the order shows; × and + give the same value either way.)
	mulMinR [8]struct{}
	mulMaxR [9]struct{}
	// The operators no predefined semiring multiplies with, which only the
	// element-wise loops compute (odot, builtin_vec.go).
	mulMinus   [10]struct{}
	mulDiv     [11]struct{}
	mulAbsDiff [12]struct{}

	addPlus [1]struct{}
	addMin  [2]struct{}
	addMax  [3]struct{}
)

type mulTag interface {
	mulFirst | mulSecond | mulPair | mulTimes | mulPlus | mulMin | mulMax |
		mulMinR | mulMaxR | mulMinus | mulDiv | mulAbsDiff
}

type addTag interface{ addPlus | addMin | addMax }

// readsX and readsY report whether ⊗ looks at its first and its second
// operand. The loops load an operand only when it does, so first, second and
// pair never touch the values they ignore: ⟨+, pair⟩ counts column hits.
func readsX[M mulTag]() bool {
	var m M
	return len(m) != len(mulSecond{}) && len(m) != len(mulPair{})
}

func readsY[M mulTag]() bool {
	var m M
	return len(m) != len(mulFirst{}) && len(m) != len(mulPair{})
}

// The three helpers below are what the loops inline per flop. Their bodies
// call no other generic function: a nested one leaves a check of its
// dictionary behind in the loop, which is enough to keep the compiler from
// turning a short conditional update into a conditional move. (The loops
// call readsX and readsY once, before they start, for the same reason.)

// operands returns x[p] and y[q] for otimes, loading only those ⊗ reads —
// readsX and readsY, spelled out.
func operands[M mulTag, T number](x []T, p int, y []T, q int) (a, b T) {
	var m M
	if len(m) != len(mulSecond{}) && len(m) != len(mulPair{}) {
		a = x[p]
	}
	if len(m) != len(mulFirst{}) && len(m) != len(mulPair{}) {
		b = y[q]
	}
	return a, b
}

// otimes is x ⊗ y as the predefined operator computes it; min and max are
// the predefined ones, in which the second operand wins only when it is
// strictly less (greater), so a NaN or a tie keeps the first.
func otimes[M mulTag, T number](x, y T) T {
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
	case len(mulMinR{}):
		if x < y {
			return x
		}
		return y
	}
	if x > y {
		return x
	}
	return y
}

// oplus is acc ⊕ x as the predefined monoid's operator computes it.
func oplus[A addTag, T number](acc, x T) T {
	var a A
	switch len(a) {
	case len(addPlus{}):
		return acc + x
	case len(addMin{}):
		if x < acc {
			return x
		}
		return acc
	}
	if x > acc {
		return x
	}
	return acc
}

// counts reports whether ⊕.⊗ is ⟨+, pair⟩, which a fold computes as a
// count.
func counts[M mulTag, A addTag]() bool {
	var m M
	var a A
	return len(m) == len(mulPair{}) && len(a) == len(addPlus{})
}

// ones is n ones folded with +, as the closure loop adds them: T(n), except
// where float32 stops counting at 2²⁴ (2²⁴ + 1 rounds back to 2²⁴).
func ones[T number](n int) T {
	if c := 1 << 24; n > c {
		if f := T(c); f+1 == f {
			return f
		}
	}
	return T(n)
}

// saturates reports whether ⊕ has a terminal value: a value at which a fold
// can stop, because no later term can change it, NaN included. min and max
// (and so ∧ and ∨) have one, + has none.
func saturates[A addTag]() bool {
	var a A
	return len(a) != len(addPlus{})
}

// terminal is ⊕'s terminal value over T, taken from the operator and the
// domain, never from the monoid's user-settable Terminal: min stops at the
// domain's least value, max at its greatest. Stopping there leaves the
// result as it was.
func terminal[A addTag, T number]() T {
	var a A
	lo, hi := bounds[T]()
	if len(a) == len(addMin{}) {
		return lo
	}
	return hi
}

// bounds returns the least and greatest values of T: ±Inf for the floats,
// 0 and 1 (false and true) for boolean.
func bounds[T number]() (lo, hi T) {
	var z T
	switch any(z).(type) {
	case float32, float64:
		return T(math.Inf(-1)), T(math.Inf(1))
	case int32:
		l, h := int32(math.MinInt32), int32(math.MaxInt32)
		return T(l), T(h)
	case boolean:
		return 0, 1
	}
	l, h := int64(math.MinInt64), int64(math.MaxInt64)
	return T(l), T(h)
}

// csrView is a CSR's structure with its values as []T; val is nil when the
// matrix's domain is not T, which only a loop whose ⊗ ignores them receives.
type csrView[T number] struct {
	ptr, cols []int
	val       []T
}

// loops is one (⊗, ⊕) compiled over T: the inner loop of each kernel.
type loops[T number] interface {
	reads() (x, y bool)
	absorbs() bool
	dot(a csrView[T], uv []T, present []bool, idx []int, out []T, lo, hi int, mask *VecMask) int
	dotMasked(a, b csrView[T], mask *MatMask, pos []int, val []T, has []bool, ptr []int, lo, hi int)
	slot(a, b csrView[T], mask *MatMask, slot []int, val []T, has []bool, ptr []int, lo, hi int)
	pushRow(cols []int, av []T, y T, allowed *BitSPA, comp bool, val []T, stamp []int, cur int, nz []int) []int
}

// ops implements loops for ⊗ = M and ⊕ = A over T. It has no fields: the
// operators are in its type.
type ops[T number, M mulTag, A addTag] struct{}

func (*ops[T, M, A]) reads() (x, y bool) { return readsX[M](), readsY[M]() }

func (*ops[T, M, A]) absorbs() bool { return absorbs[M, A]() }

// absorbs reports whether a slot of u holding ⊕'s identity gives a term the
// fold cannot tell from no term, so that dot may read a partial u's every
// slot once DotMxV has filled its absent ones with that identity. ⊗ =
// second passes the identity on as the term. min under max (∧ under ∨ over
// bool) turns it into the domain's least value, or into A's NaN, and max
// keeps acc over either; max under min is the mirror. Over float + an
// absent 0 still differs in bits from no term in two cases, which dot
// folds again (dot's refold); min and max have none.
func absorbs[M mulTag, A addTag]() bool {
	var m M
	var a A
	switch len(m) {
	case len(mulSecond{}):
		return true
	case len(mulMin{}), len(mulMinR{}):
		return len(a) == len(addMax{})
	case len(mulMax{}), len(mulMaxR{}):
		return len(a) == len(addMin{})
	}
	return false
}

// dot is dotCore's chunk [lo, hi): ⊕ A(i, k) ⊗ u(k) over the columns k of
// row i that u stores (every one when present is nil), folded in ascending k
// from the first term and stopped once ⊕ saturates, written compactly into
// idx and out (emitRows; a nil idx says every row emits). It returns the
// number of rows written.
//
// Over a partial u a row's first term is the first column present flags;
// a row with none emits nothing. Past it, a loop that absorbs ⊕'s identity
// reads u as a full vector — DotMxV has put the identity in every absent
// slot — so its fold has no presence test, the branch that mispredicts on
// a frontier holding half the edges. Other loops keep the test.
//
// A fold that can stop runs in a function of its own, foldDense or
// foldPresent, as shared does for dotMasked: inlined here, its saturation
// test lost its register to the row loop and was stored and reloaded on
// every term. A ⊕ without a terminal value has no test, and its fold stays
// inline: the call would cost every row more than it saves.
//
//grblint:hotpath
func (*ops[T, M, A]) dot(a csrView[T], uv []T, present []bool, idx []int, out []T, lo, hi int, mask *VecMask) int {
	stop := terminal[A, T]()
	rx := readsX[M]()
	dense := present == nil || absorbs[M, A]()
	// Under float + an absent 0 turns an accumulated −0 into +0 and quiets
	// a signalling NaN. Either can only end in a ±0 or NaN sum, so a row
	// whose dense fold ends there is folded again with the presence test.
	refold := present != nil && dense && !saturates[A]() && T(1)/2 != 0
	cur := MaskCursor{Mask: mask}
	n := 0
	for i := lo; i < hi; i++ {
		p, end := a.ptr[i], a.ptr[i+1]
		if p == end || mask != nil && !cur.Allows(i) {
			continue
		}
		if present != nil {
			for p < end && !present[a.cols[p]] {
				p++
			}
			if p == end {
				continue
			}
		}
		acc := otimes[M](operands[M](a.val, p, uv, a.cols[p]))
		switch p++; {
		case saturates[A]():
			cols, av := a.cols[p:end], rowVals(a.val, rx, p, end)
			if dense {
				acc = foldDense[T, M, A](acc, cols, av, uv, stop)
			} else {
				acc = foldPresent[T, M, A](acc, cols, av, uv, present, stop)
			}
		case dense:
			for ; p < end; p++ {
				acc = oplus[A](acc, otimes[M](operands[M](a.val, p, uv, a.cols[p])))
			}
			if refold && (acc == 0 || acc != acc) {
				s := a.ptr[i]
				acc = foldRowPresent[T, M, A](a.cols[s:end], rowVals(a.val, rx, s, end), uv, present)
			}
		default:
			for ; p < end; p++ {
				if k := a.cols[p]; present[k] {
					acc = oplus[A](acc, otimes[M](operands[M](a.val, p, uv, k)))
				}
			}
		}
		if idx != nil {
			idx[n] = i
		}
		out[n] = acc
		n++
	}
	return n
}

// foldRowPresent is a whole row of dot over a partial u, columns cols and
// values av, folded with the presence test from its first present term —
// which the row has, having emitted — with no stop: what dot folds a row
// whose identity fold may differ from it in bits.
func foldRowPresent[T number, M mulTag, A addTag](cols []int, av, uv []T, present []bool) T {
	p := 0
	for !present[cols[p]] {
		p++
	}
	acc := otimes[M](operands[M](av, p, uv, cols[p]))
	for p++; p < len(cols); p++ {
		if k := cols[p]; present[k] {
			acc = oplus[A](acc, otimes[M](operands[M](av, p, uv, k)))
		}
	}
	return acc
}

// foldDense is the rest of a row of dot over a u that stores every
// position, or whose absent slots hold an identity the loop absorbs: the
// fold acc of its first term continued over the terms of the columns cols
// and values av that follow, stopped once acc reaches ⊕'s terminal value
// stop — tested before the next term is read. The row comes as slices so
// that the call passes its arguments in registers.
//
//grblint:hotpath
func foldDense[T number, M mulTag, A addTag](acc T, cols []int, av, uv []T, stop T) T {
	for p := 0; p < len(cols) && acc != stop; p++ {
		acc = oplus[A](acc, otimes[M](operands[M](av, p, uv, cols[p])))
	}
	return acc
}

// foldPresent is foldDense over a partial u: the terms that follow are
// those whose column u stores.
//
//grblint:hotpath
func foldPresent[T number, M mulTag, A addTag](acc T, cols []int, av, uv []T, present []bool, stop T) T {
	for p := 0; p < len(cols) && acc != stop; p++ {
		if k := cols[p]; present[k] {
			acc = oplus[A](acc, otimes[M](operands[M](av, p, uv, k)))
		}
	}
	return acc
}

// dotMasked is SpGEMMDotMasked's chunk [lo, hi): row i of A is scattered
// into pos, and every mask entry (i, j) folds A(i, k) ⊗ B(j, k) over the
// columns k the two rows share, in ascending k, stopped once ⊕ saturates.
//
//grblint:hotpath
func (*ops[T, M, A]) dotMasked(a, b csrView[T], mask *MatMask, pos []int, val []T, has []bool, ptr []int, lo, hi int) {
	stop := terminal[A, T]()
	for i := lo; i < hi; i++ {
		base := a.ptr[i]
		if mask.EffPtr[i] == mask.EffPtr[i+1] || base == a.ptr[i+1] {
			continue
		}
		for pa := base; pa < a.ptr[i+1]; pa++ {
			pos[a.cols[pa]] = pa + 1
		}
		filled := 0
		for p := mask.EffPtr[i]; p < mask.EffPtr[i+1]; p++ {
			j := mask.EffIdx[p]
			if acc, ok := shared[T, M, A](a.val, pos, base, b, b.ptr[j], b.ptr[j+1], stop); ok {
				val[p], has[p] = acc, true
				filled++
			}
		}
		ptr[i+1] = filled
	}
}

// shared is one entry of dotMasked: A(i, k) ⊗ B(j, k) folded over the
// columns k of B's row j — its storage [pb, end) — that A's row i holds, A's
// entry being pos[k]−1 when pos[k] > base. ok is false when the rows share
// no column. A function of its own so that the fold gets the registers.
//
//grblint:hotpath
func shared[T number, M mulTag, A addTag](av []T, pos []int, base int, b csrView[T], pb, end int, stop T) (acc T, ok bool) {
	if counts[M, A]() {
		// ⟨+, pair⟩: the entry is the number of shared columns, counted
		// without a branch: base−pos[k] is negative, its sign bit set,
		// exactly when the column is A's.
		n := 0
		for _, k := range b.cols[pb:end] {
			n += int(uint(base-pos[k]) >> (bits.UintSize - 1))
		}
		return ones[T](n), n > 0
	}
	for pb < end && pos[b.cols[pb]] <= base {
		pb++
	}
	if pb == end {
		return acc, false
	}
	acc = otimes[M](operands[M](av, pos[b.cols[pb]]-1, b.val, pb))
	for pb++; pb < end && !(saturates[A]() && acc == stop); pb++ {
		if s := pos[b.cols[pb]]; s > base {
			acc = oplus[A](acc, otimes[M](operands[M](av, s-1, b.val, pb)))
		}
	}
	return acc, true
}

// slot is spgemmMaskShaped's chunk [lo, hi): row i of the mask stamps its
// columns with their slots, and every flop A(i, k) ⊗ B(k, j) landing on a
// stamped column folds into its slot.
//
//grblint:hotpath
func (*ops[T, M, A]) slot(a, b csrView[T], mask *MatMask, slot []int, val []T, has []bool, ptr []int, lo, hi int) {
	rx, ry := readsX[M](), readsY[M]()
	for i := lo; i < hi; i++ {
		base, end := mask.EffPtr[i], mask.EffPtr[i+1]
		if base == end || a.ptr[i] == a.ptr[i+1] {
			continue
		}
		for p := base; p < end; p++ {
			slot[mask.EffIdx[p]] = p + 1
		}
		filled := 0
		for pa := a.ptr[i]; pa < a.ptr[i+1]; pa++ {
			k := a.cols[pa]
			var x T
			if rx {
				x = a.val[pa]
			}
			for pb := b.ptr[k]; pb < b.ptr[k+1]; pb++ {
				s := slot[b.cols[pb]]
				if s <= base {
					continue
				}
				s--
				var y T
				if ry {
					y = b.val[pb]
				}
				if t := otimes[M](x, y); has[s] {
					val[s] = oplus[A](val[s], t)
				} else {
					val[s], has[s] = t, true
					filled++
				}
			}
		}
		ptr[i+1] = filled
	}
}

// pushRow is one frontier entry of pushCore: y = u(k) scattered through
// row k of A — its columns and, when ⊗ reads them, its values — into the
// sparse accumulator (val, stamp, cur) past the targets the mask denies. It
// returns the touched list with the row's new targets appended.
//
//grblint:hotpath
func (*ops[T, M, A]) pushRow(cols []int, av []T, y T, allowed *BitSPA, comp bool, val []T, stamp []int, cur int, nz []int) []int {
	rx := readsX[M]()
	for q, i := range cols {
		if allowed != nil && allowed.Has(i) == comp {
			continue
		}
		var x T
		if rx {
			x = av[q]
		}
		if t := otimes[M](x, y); stamp[i] == cur {
			val[i] = oplus[A](val[i], t)
		} else {
			stamp[i], val[i] = cur, t
			nz = append(nz, i)
		}
	}
	return nz
}

// loopKey is what picks a kernel's loop: its ring's opcodes, and whether ⊗
// arrives with its operands swapped.
type loopKey struct {
	mul, add Opcode
	swapped  bool
}

func (r Ring[DA, DB, DC]) key() loopKey { return loopKey{r.MulOp, r.AddOp, r.Swapped} }

// lookup returns the loops for key over T, or nil when none are compiled.
// They are compiled for the selectors first, second and pair under +, min
// and max, and for the arithmetic semirings of the predefined set: ⟨+,×⟩,
// ⟨min,×⟩, ⟨min,+⟩, ⟨max,+⟩, ⟨min,max⟩ and ⟨max,min⟩ — which over boolean
// is ⟨∨,∧⟩. Swapped, first and second trade places and min and max take
// their reversed tags; the rest give the same value in either order. hasX
// and hasY say whether the kernel can hand ⊗'s operands over as []T; an
// operator reading one it cannot gets none either.
func lookup[T number](key loopKey, hasX, hasY bool) loops[T] {
	m, a, rev := lattice(key.mul), lattice(key.add), false
	if key.swapped {
		switch key.mul {
		case OpFirst:
			m = OpSecond
		case OpSecond:
			m = OpFirst
		case OpMin, OpMax:
			rev = true
		}
	}
	var l loops[T]
	switch {
	case m == OpFirst:
		l = withAdd[T, mulFirst](a)
	case m == OpSecond:
		l = withAdd[T, mulSecond](a)
	case m == OpPair:
		l = withAdd[T, mulPair](a)
	case m == OpTimes && a == OpPlus:
		l = &ops[T, mulTimes, addPlus]{}
	case m == OpTimes && a == OpMin:
		l = &ops[T, mulTimes, addMin]{}
	case m == OpPlus && a == OpMin:
		l = &ops[T, mulPlus, addMin]{}
	case m == OpPlus && a == OpMax:
		l = &ops[T, mulPlus, addMax]{}
	case m == OpMax && a == OpMin:
		l = pick[T, mulMax, mulMaxR, addMin](rev)
	case m == OpMin && a == OpMax:
		l = pick[T, mulMin, mulMinR, addMax](rev)
	}
	if l == nil {
		return nil
	}
	if x, y := l.reads(); x && !hasX || y && !hasY {
		return nil
	}
	return l
}

// pick is ⟨A, M⟩'s loops, or ⟨A, R⟩'s — M with its operands swapped.
func pick[T number, M, R mulTag, A addTag](rev bool) loops[T] {
	if rev {
		return &ops[T, R, A]{}
	}
	return &ops[T, M, A]{}
}

func withAdd[T number, M mulTag](add Opcode) loops[T] {
	switch add {
	case OpPlus:
		return &ops[T, M, addPlus]{}
	case OpMin:
		return &ops[T, M, addMin]{}
	case OpMax:
		return &ops[T, M, addMax]{}
	}
	return nil
}

// lattice names ∧ and ∨ by what they are on boolean, min and max. Only bool
// has them, and bool has no min or max of its own, so the two never meet.
func lattice(c Opcode) Opcode {
	switch c {
	case OpLAnd:
		return OpMin
	case OpLOr:
		return OpMax
	}
	return c
}

// kind names the domain of a []D the loops are compiled for — bool's and
// boolean's being one — or none.
type kind uint8

const (
	noKind kind = iota
	float64Kind
	float32Kind
	int64Kind
	int32Kind
	intKind
	boolKind
)

// kindOf returns D's kind.
func kindOf[D any]() kind {
	switch any([]D(nil)).(type) {
	case []float64:
		return float64Kind
	case []float32:
		return float32Kind
	case []int64:
		return int64Kind
	case []int32:
		return int32Kind
	case []int:
		return intKind
	case []bool, []boolean:
		return boolKind
	}
	return noKind
}

// operand is one of a kernel's []D with D erased: its array, its length
// and its kind. It is how an operand outside the output domain reaches an
// entry, which is compiled per output domain alone.
type operand struct {
	p    unsafe.Pointer
	n    int
	kind kind
}

func operandOf[D any](s []D) operand {
	return operand{unsafe.Pointer(unsafe.SliceData(s)), len(s), kindOf[D]()}
}

// is reports whether x's domain is T's.
func is[T number](x operand) bool { return x.kind == kindOf[T]() }

// as returns x as []T, nil when its domain is not T's.
func as[T number](x operand) []T {
	if !is[T](x) {
		return nil
	}
	return unsafe.Slice((*T)(x.p), x.n)
}

// csrOperand is a CSR with its values erased.
type csrOperand struct {
	ptr, cols []int
	val       operand
}

func csrOf[D any](m *CSR[D]) csrOperand {
	return csrOperand{m.Ptr, m.ColIdx, operandOf(m.Val)}
}

// view returns x, one of a kernel's []DC, as []T — a []bool as its own
// bytes seen as []boolean — and nil when DC is not T's domain.
func view[T number](x any) []T {
	if b, ok := x.([]bool); ok {
		x = unsafe.Slice((*boolean)(unsafe.Pointer(unsafe.SliceData(b))), len(b))
	}
	v, _ := x.([]T)
	return v
}

// entry is where a kernel meets the loops: one implementation per output
// domain DC, domain[T, DC], chosen by entryFor. Each method views the
// kernel's operands as []T, looks the loops up and runs them, or reports
// false, having done nothing, when there are none — the kernel then runs
// its closure loop. Operands in DC come typed; the others come as operands.
type entry[DC any] interface {
	dot(key loopKey, a csrOperand, dense operand, present []bool, idx []int, out []DC, lo, hi int, mask *VecMask) (int, bool)
	dotMasked(key loopKey, a, b csrOperand, mask *MatMask, pos []int, val []DC, has []bool, ptr []int, lo, hi int) bool
	slot(key loopKey, a, b csrOperand, mask *MatMask, slot []int, val []DC, has []bool, ptr []int, lo, hi int) bool
	push(key loopKey, a csrOperand, uIdx []int, uVal operand, allowed *BitSPA, comp bool, val []DC, stamp []int, cur int, nz []int) ([]int, bool)
	pullsDense(key loopKey, a, u kind) bool
	fillIdentity(add Opcode, dense operand)

	// The element-wise kernels' loops (builtin_vec.go).
	loops(op Opcode, x, y kind) vecLoops[DC]
}

// entryFor returns the entry for DC, or nil when the ring's operators are
// not both predefined or DC is a domain no loop is compiled for. It is what
// a kernel asks once per call; a user's semiring costs it two compares.
func entryFor[DC any](key loopKey) entry[DC] {
	if key.mul == OpNone || key.add == OpNone {
		return nil
	}
	return domainOf[DC]()
}

// domainOf returns the entry for DC, or nil when DC is a domain no loop is
// compiled for. Each case names an instantiation of its own domain, the
// same whatever the kernel calling, so the entries are compiled six times
// in all.
func domainOf[DC any]() entry[DC] {
	var e any
	switch any([]DC(nil)).(type) {
	case []float64:
		e = &domain[float64, float64]{}
	case []float32:
		e = &domain[float32, float32]{}
	case []int64:
		e = &domain[int64, int64]{}
	case []int32:
		e = &domain[int32, int32]{}
	case []int:
		e = &domain[int, int]{}
	case []bool:
		e = &domain[boolean, bool]{}
	default:
		return nil
	}
	return e.(entry[DC])
}

// domain implements entry for the output domain DC, which is T's: T itself,
// or bool for boolean.
type domain[T number, DC any] struct{}

func viewCSR[T number](m csrOperand) csrView[T] {
	return csrView[T]{ptr: m.ptr, cols: m.cols, val: as[T](m.val)}
}

func (*domain[T, DC]) dot(key loopKey, a csrOperand, dense operand, present []bool, idx []int, out []DC, lo, hi int, mask *VecMask) (int, bool) {
	l := lookup[T](key, is[T](a.val), is[T](dense))
	if l == nil {
		return 0, false
	}
	return l.dot(viewCSR[T](a), as[T](dense), present, idx, view[T](out), lo, hi, mask), true
}

func (*domain[T, DC]) dotMasked(key loopKey, a, b csrOperand, mask *MatMask, pos []int, val []DC, has []bool, ptr []int, lo, hi int) bool {
	l := lookup[T](key, is[T](a.val), is[T](b.val))
	if l == nil {
		return false
	}
	l.dotMasked(viewCSR[T](a), viewCSR[T](b), mask, pos, view[T](val), has, ptr, lo, hi)
	return true
}

func (*domain[T, DC]) slot(key loopKey, a, b csrOperand, mask *MatMask, slot []int, val []DC, has []bool, ptr []int, lo, hi int) bool {
	l := lookup[T](key, is[T](a.val), is[T](b.val))
	if l == nil {
		return false
	}
	l.slot(viewCSR[T](a), viewCSR[T](b), mask, slot, view[T](val), has, ptr, lo, hi)
	return true
}

// push runs pushCore's pass into the sparse accumulator's parts (handing
// over the accumulator itself would move it to the heap) and returns its
// grown touched list. u's value at a frontier position is read only when ⊗
// reads it.
func (*domain[T, DC]) push(key loopKey, a csrOperand, uIdx []int, uVal operand, allowed *BitSPA, comp bool, val []DC, stamp []int, cur int, nz []int) ([]int, bool) {
	l := lookup[T](key, is[T](a.val), is[T](uVal))
	if l == nil {
		return nz, false
	}
	_, readsU := l.reads()
	av, uv, w := as[T](a.val), as[T](uVal), view[T](val)
	for pu, k := range uIdx {
		var y T
		if readsU {
			y = uv[pu]
		}
		p, end := a.ptr[k], a.ptr[k+1]
		nz = l.pushRow(a.cols[p:end], rowVals(av, av != nil, p, end), y, allowed, comp, w, stamp, cur, nz)
	}
	return nz, true
}

// pullsDense reports whether dot, for a matrix of kind a and a vector of
// kind u, runs a loop that absorbs ⊕'s identity under + — the loops whose
// partial pull the crossover table's ⟨+, second⟩ rows price (PullWins). A
// fold under min or max stops at its terminal value, often at the first
// term, whether or not it tests presence, so the rule prices those loops
// as it prices the ones that test.
func (*domain[T, DC]) pullsDense(key loopKey, a, u kind) bool {
	k := kindOf[T]()
	l := lookup[T](key, a == k, u == k)
	return l != nil && l.absorbs() && key.add == OpPlus
}

// fillIdentity writes ⊕'s identity into every slot of dense, where ⊕ is
// one the loops compile — + (0), min (the domain's greatest value), max
// (its least), ∨ and ∧ as max and min — and dense is of T's domain, which
// it is whenever a loop that absorbs the identity reads it.
func (*domain[T, DC]) fillIdentity(add Opcode, dense operand) {
	var id T
	lo, hi := bounds[T]()
	switch lattice(add) {
	case OpPlus:
	case OpMin:
		id = hi
	case OpMax:
		id = lo
	default:
		return
	}
	d := as[T](dense)
	for k := range d {
		d[k] = id
	}
}

// rowVals is av[p:end], or nil when A's values are not []T.
func rowVals[T number](av []T, ok bool, p, end int) []T {
	if !ok {
		return nil
	}
	return av[p:end]
}
