package sparse

import (
	"slices"
	"sort"
	"unsafe"

	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/pool"
)

// VecMask is a pre-resolved one-dimensional mask: Idx lists, in increasing
// order, the positions whose stored mask value is true (the paper's "exist
// and are true" rule). Comp selects the structural complement (GrB_SCMP):
// note the complement is taken over the *structure*, so Structure must then
// list all stored positions regardless of value. The core package resolves
// value truthiness before kernels run.
type VecMask struct {
	N         int
	Idx       []int // effective positions: stored-and-true; unread when Comp
	Structure []int // all stored positions (basis of the structural complement)
	Comp      bool
}

// MaskCursor tests mask membership while indices are visited in increasing
// order, amortized O(1) per query. A nil Mask allows every index.
type MaskCursor struct {
	Mask *VecMask
	p    int
}

// Allows reports whether the mask admits index i, which must be no smaller
// than the index of the previous query.
func (a *MaskCursor) Allows(i int) bool {
	if a.Mask == nil {
		return true
	}
	set := a.Mask.Idx
	if a.Mask.Comp {
		set = a.Mask.Structure
	}
	for a.p < len(set) && set[a.p] < i {
		a.p++
	}
	member := a.p < len(set) && set[a.p] == i
	if a.Mask.Comp {
		return !member
	}
	return member
}

// The full-vector rule. A vector that stores all N positions is the dense
// array its Val already is (Vec.Full), so each kernel below checks its
// operands once per call and, when one is full, replaces the index merge by
// an array loop: the full side's values are copied and the other side is
// folded in at its positions. Every operator is called on the same operands,
// in the same argument order, as in the merge — positions in both get
// add(a, b) or mul(a, b), positions in one keep their value — so the result
// is the merge's, bit for bit. The output's positions are those of the full
// side (the union) or of the other (the intersection), so it shares that
// input's Idx (emit.go); its Val is always its own.

// VecUnion computes the eWiseAdd merge of a and b: positions in both get
// add(a, b); positions in exactly one keep their value. op names add when
// it is predefined, and the kernel then runs add's compiled loop
// (builtin_vec.go); OpNone runs the closure.
func VecUnion[D any](a, b *Vec[D], add func(D, D) D, op Opcode) *Vec[D] {
	done := obs.KernelStart("vec.union")
	w := union(a, b, add, op)
	done(w.NVals())
	return w
}

// union is VecUnion's body, for the assign that runs it as one step of its
// own kernel. Two partial sides merge into storage sized for both; with a
// full side the result takes that side's positions and a copy of its
// values, and the other side is folded in at its positions.
func union[D any](a, b *Vec[D], add func(D, D) D, op Opcode) *Vec[D] {
	l := opLoops[D, D, D](op)
	if !a.Full() && !b.Full() {
		m := len(a.Idx) + len(b.Idx)
		idx, val := pool.RawVals[int](m), pool.RawVals[D](m)
		n := unionRow(l, a.Idx, a.Val, b.Idx, b.Val, add, idx, val)
		return pooledVec(a.N, idx[:n], val[:n])
	}
	w := &Vec[D]{N: a.N}
	switch {
	case a.Full():
		shareIdx(w, a)
		w.Val = cloneVals(a.Val)
		if l != nil {
			l.intoRight(b.Idx, b.Val, w.Val)
			break
		}
		for k, i := range b.Idx {
			w.Val[i] = add(w.Val[i], b.Val[k])
		}
	default:
		shareIdx(w, b)
		w.Val = cloneVals(b.Val)
		if l != nil {
			l.intoLeft(a.Idx, a.Val, w.Val)
			break
		}
		for k, i := range a.Idx {
			w.Val[i] = add(a.Val[k], w.Val[i])
		}
	}
	return w
}

// unionRow is the eWiseAdd merge of two rows, the one the vector and the
// matrix kernels share, written by position into idx and val, which have
// room for both sides. It runs l, add's compiled loops (opLoops), when
// there are some, and the closure otherwise. It returns the merged length.
func unionRow[D any](l vecLoops[D], aIdx []int, aVal []D, bIdx []int, bVal []D, add func(D, D) D, idx []int, val []D) int {
	if l != nil {
		return l.union(aIdx, aVal, bIdx, bVal, idx, val)
	}
	pa, pb, n := 0, 0, 0
	for pa < len(aIdx) && pb < len(bIdx) {
		switch i, j := aIdx[pa], bIdx[pb]; {
		case i < j:
			idx[n], val[n] = i, aVal[pa]
			pa++
		case j < i:
			idx[n], val[n] = j, bVal[pb]
			pb++
		default:
			idx[n], val[n] = i, add(aVal[pa], bVal[pb])
			pa++
			pb++
		}
		n++
	}
	if pa < len(aIdx) {
		return n + copyRun(aIdx[pa:], aVal[pa:], idx[n:], val[n:])
	}
	return n + copyRun(bIdx[pb:], bVal[pb:], idx[n:], val[n:])
}

// copyRun copies the entries (idx, val) to the front of (toIdx, toVal) and
// returns their number.
func copyRun[T any](idx []int, val []T, toIdx []int, toVal []T) int {
	copy(toVal, val)
	return copy(toIdx, idx)
}

// VecIntersect computes the eWiseMult merge of a and b: only positions
// present in both survive, combined with mul. The three-domain form mirrors
// the paper's set-intersection definition of ⊗. With one side full the
// other side's structure is the result's, so the kernel walks that side,
// indexes the full one directly and shares the walked side's Idx. Two
// partial sides merge into storage sized for the smaller. op names mul as
// VecUnion's op names add.
func VecIntersect[DA, DB, DC any](a *Vec[DA], b *Vec[DB], mul func(DA, DB) DC, op Opcode) *Vec[DC] {
	done := obs.KernelStart("vec.intersect")
	l := opLoops[DC, DA, DB](op)
	var w *Vec[DC]
	switch {
	case b.Full():
		w = &Vec[DC]{N: a.N, Val: pool.RawVals[DC](len(a.Idx))}
		shareIdx(w, a)
		if l != nil {
			l.pickRight(a.Idx, operandOf(a.Val), operandOf(b.Val), w.Val)
			break
		}
		for k, i := range a.Idx {
			w.Val[k] = mul(a.Val[k], b.Val[i])
		}
	case a.Full():
		w = &Vec[DC]{N: a.N, Val: pool.RawVals[DC](len(b.Idx))}
		shareIdx(w, b)
		if l != nil {
			l.pickLeft(b.Idx, operandOf(a.Val), operandOf(b.Val), w.Val)
			break
		}
		for k, i := range b.Idx {
			w.Val[k] = mul(a.Val[i], b.Val[k])
		}
	default:
		m := min(len(a.Idx), len(b.Idx))
		idx, val := pool.RawVals[int](m), pool.RawVals[DC](m)
		n := intersectRow(l, a.Idx, a.Val, b.Idx, b.Val, mul, idx, val)
		w = pooledVec(a.N, idx[:n], val[:n])
	}
	done(w.NVals())
	return w
}

// intersectRow is the eWiseMult merge of two rows, shared as unionRow is,
// written by position into idx and val, which have room for the smaller
// side. It returns the merged length.
func intersectRow[DA, DB, DC any](l vecLoops[DC], aIdx []int, aVal []DA, bIdx []int, bVal []DB, mul func(DA, DB) DC, idx []int, val []DC) int {
	if l != nil {
		return l.intersect(aIdx, unsafe.Pointer(unsafe.SliceData(aVal)), bIdx, unsafe.Pointer(unsafe.SliceData(bVal)), idx, val)
	}
	pa, pb, n := 0, 0, 0
	for pa < len(aIdx) && pb < len(bIdx) {
		switch i, j := aIdx[pa], bIdx[pb]; {
		case i < j:
			pa++
		case j < i:
			pb++
		default:
			idx[n], val[n] = i, mul(aVal[pa], bVal[pb])
			n++
			pa++
			pb++
		}
	}
	return n
}

// VecApply maps f over the stored values of a, keeping — sharing — its
// structure.
func VecApply[DA, DC any](a *Vec[DA], f func(DA) DC) *Vec[DC] {
	out := &Vec[DC]{N: a.N, Val: pool.RawVals[DC](len(a.Val))}
	shareIdx(out, a)
	for k, v := range a.Val {
		out.Val[k] = f(v)
	}
	return out
}

// VecApplyIndex maps f(value, index) over the stored entries of a, sharing
// its structure.
func VecApplyIndex[DA, DC any](a *Vec[DA], f func(DA, int) DC) *Vec[DC] {
	out := &Vec[DC]{N: a.N, Val: pool.RawVals[DC](len(a.Val))}
	shareIdx(out, a)
	for k, v := range a.Val {
		out.Val[k] = f(v, a.Idx[k])
	}
	return out
}

// VecSelect keeps the entries of a for which pred(value, index) holds. pred
// runs once per entry, into pooled keep flags; the survivors are counted and
// copied into storage of their number, and when every entry survives the
// result shares a's Idx.
//
//grblint:hotpath
func VecSelect[D any](a *Vec[D], pred func(D, int) bool) *Vec[D] {
	keep := pool.GetBools(len(a.Idx))
	kept := 0
	for k, v := range a.Val {
		if pred(v, a.Idx[k]) {
			keep[k] = true
			kept++
		}
	}
	val := pool.RawVals[D](kept)
	var out *Vec[D]
	if kept == len(a.Idx) {
		out = &Vec[D]{N: a.N, Val: val}
		shareIdx(out, a)
		copy(out.Val, a.Val)
	} else {
		idx := pool.RawVals[int](kept)
		w := 0
		for k, ok := range keep {
			if ok {
				idx[w], val[w] = a.Idx[k], a.Val[k]
				w++
			}
		}
		out = pooledVec(a.N, idx, val)
	}
	pool.PutBools(keep)
	return out
}

// VecReduce folds the stored values of a with the monoid operation add
// starting from identity. Returns identity for an empty vector, with
// stored == false so callers can distinguish "no entries". A non-nil term
// predicate recognizes the monoid's annihilator and stops the fold early.
// op names add as VecUnion's op does.
func VecReduce[D any](a *Vec[D], add func(D, D) D, op Opcode, identity D, term func(D) bool) (D, bool) {
	faults.Step("sparse.kernel.reduce.vec")
	done := obs.KernelStart("reduce.vec")
	acc := fold(opLoops[D, D, D](op), identity, a.Val, add, term)
	done(len(a.Val))
	return acc, len(a.Val) > 0
}

// fold folds vals into acc from the left with add, the one fold of the
// vector reduce, the matrix's and each row of the row reduce. A non-nil
// term stops it once acc is the annihilator. It runs l, add's compiled
// loops, when there are some — whose min and max stop at the domain's
// bound instead, which leaves the result as term would — and the closure
// otherwise.
func fold[D any](l vecLoops[D], acc D, vals []D, add func(D, D) D, term func(D) bool) D {
	if l != nil {
		return l.reduce(acc, vals)
	}
	for _, v := range vals {
		if term != nil && term(acc) {
			break
		}
		acc = add(acc, v)
	}
	return acc
}

// MaskMergeVec applies the final write stage of the paper's operation
// pipeline (Section VI): given the old content c and the computed content z
// (already accumulated if an accumulator was supplied), produce the new
// content of the output under mask/replace semantics:
//
//	inside the mask:  take z's entry (or no entry where z has none);
//	outside the mask: keep c's entry unless replace is set.
//
// A nil mask admits every position and returns z itself: callers transfer
// ownership of z (every kernel in this package produces a Val of its own,
// and an Idx it shares is never written, so this avoids an O(nnz) copy on
// the hot unmasked path). Callers holding a shared z must clone before
// passing it.
func MaskMergeVec[D any](c, z *Vec[D], mask *VecMask, replace bool) *Vec[D] {
	if mask == nil {
		return z
	}
	m := len(c.Idx) + len(z.Idx)
	idx, val := maskMergeRow(c.Idx, c.Val, z.Idx, z.Val, mask, replace, pool.RawVals[int](m)[:0], pool.RawVals[D](m)[:0])
	return pooledVec(c.N, idx, val)
}

// maskMergeRow is the slice-level mask merge shared by the vector operation
// and the row-parallel matrix write-back; results append to outIdx/outVal.
func maskMergeRow[D any](cIdx []int, cVal []D, zIdx []int, zVal []D, mask *VecMask, replace bool, outIdx []int, outVal []D) ([]int, []D) {
	cur := MaskCursor{Mask: mask}
	pc, pz := 0, 0
	for pc < len(cIdx) || pz < len(zIdx) {
		var i int
		switch {
		case pc >= len(cIdx):
			i = zIdx[pz]
		case pz >= len(zIdx):
			i = cIdx[pc]
		case cIdx[pc] <= zIdx[pz]:
			i = cIdx[pc]
		default:
			i = zIdx[pz]
		}
		hasC := pc < len(cIdx) && cIdx[pc] == i
		hasZ := pz < len(zIdx) && zIdx[pz] == i
		if cur.Allows(i) {
			if hasZ {
				outIdx = append(outIdx, i)
				outVal = append(outVal, zVal[pz])
			}
		} else if !replace && hasC {
			outIdx = append(outIdx, i)
			outVal = append(outVal, cVal[pc])
		}
		if hasC {
			pc++
		}
		if hasZ {
			pz++
		}
	}
	return outIdx, outVal
}

// WriteVec runs the full accumulate-then-mask write pipeline: z is
// accum==nil ? t : union(c, t, accum), then MaskMergeVec(c, z, mask, replace).
// An accumulated z the mask merge copies is released on the way. accumOp
// names accum as VecUnion's op names add.
func WriteVec[D any](c, t *Vec[D], mask *VecMask, accum func(D, D) D, accumOp Opcode, replace bool) *Vec[D] {
	if accum == nil {
		return MaskMergeVec(c, t, mask, replace)
	}
	z := VecUnion(c, t, accum, accumOp)
	w := MaskMergeVec(c, z, mask, replace)
	if w != z {
		z.Release()
	}
	return w
}

// ExtractVec computes w(k) = u(indices[k]); duplicate source indices are
// permitted. indices must be pre-validated to lie in [0, u.N). Each index is
// looked up once, into pooled slots, and the hits are counted before the
// result is allocated.
//
//grblint:hotpath
func ExtractVec[D any](u *Vec[D], indices []int) *Vec[D] {
	slot := pool.GetInts(len(indices))
	hits := 0
	for k, i := range indices {
		if p, ok := u.find(i); ok {
			slot[k] = p + 1
			hits++
		}
	}
	var idx []int
	if hits < len(indices) {
		idx = pool.RawVals[int](hits)
	}
	val := pool.RawVals[D](hits)
	w := 0
	for k, p := range slot {
		if p > 0 {
			if idx != nil {
				idx[w] = k
			}
			val[w] = u.Val[p-1]
			w++
		}
	}
	pool.PutInts(slot)
	return pooledVec(len(indices), idx, val)
}

// AssignExpandVec computes the Z content for w(indices) = u following the
// assign semantics of the spec: Z starts as a copy of c; within the assigned
// positions, entries are replaced by u's entries (deleting positions where u
// has no entry) or, when accum is non-nil, combined with accum while keeping
// c entries untouched where u has no entry. Target indices must be unique
// (validated by the caller); nil is GrB_ALL, the identity list. accumOp
// names accum as VecUnion's op names add.
//
// Over the identity every position is assigned, so Z is a copy of u without
// an accumulator and the union of c and u with one — the merge's result,
// run by union's array loop when either is full. A list of targets is
// merged into c by assignRuns.
func AssignExpandVec[D any](c, u *Vec[D], indices []int, accum func(D, D) D, accumOp Opcode) *Vec[D] {
	done := obs.KernelStart("vec.assign")
	var z *Vec[D]
	switch {
	case indices == nil && accum == nil:
		z = &Vec[D]{N: c.N, Val: cloneVals(u.Val)}
		shareIdx(z, u)
	case indices == nil:
		z = union(c, u, accum, accumOp)
	default:
		targets, order := ascendingTargets(indices)
		src := listSource[D]{idx: u.Idx, val: u.Val, order: order}
		z = assignRuns(c, targets, src.at, accum)
		releaseTargets(targets, order)
	}
	done(z.NVals())
	return z
}

// AssignScalarExpandVec computes the Z content for w(indices) = scalar:
// every assigned position receives the scalar (combined with accum when
// present and the position already holds a value). Target indices must be
// unique (validated by the caller); nil is GrB_ALL. Over the identity Z is
// full: x everywhere, or accum(c(i), x) where c holds an entry — accumOp
// naming accum as VecUnion's op names add. A list of targets is merged into
// c by assignRuns.
func AssignScalarExpandVec[D any](c *Vec[D], x D, indices []int, accum func(D, D) D, accumOp Opcode) *Vec[D] {
	done := obs.KernelStart("vec.assign")
	var z *Vec[D]
	if indices == nil {
		z = vecOf(c.N, nil, pool.RawVals[D](c.N))
		for i := range z.Val {
			z.Val[i] = x
		}
		if accum != nil {
			if l := opLoops[D, D, D](accumOp); l != nil {
				l.intoLeft(c.Idx, c.Val, z.Val)
			} else {
				for k, i := range c.Idx {
					z.Val[i] = accum(c.Val[k], z.Val[i])
				}
			}
		}
	} else {
		targets, order := ascendingTargets(indices)
		z = assignRuns(c, targets, func(int) (D, bool) { return x, true }, accum)
		releaseTargets(targets, order)
	}
	done(z.NVals())
	return z
}

// FillVec is the vector of size n holding x at the ascending positions at
// and nowhere else: the Z of a scalar assign over every position under a
// mask that is not complemented, of which the mask merge keeps only the
// mask's true positions.
func FillVec[D any](n int, x D, at []int) *Vec[D] {
	val := pool.RawVals[D](len(at))
	for k := range val {
		val[k] = x
	}
	var idx []int
	if len(at) < n {
		idx = pool.RawVals[int](len(at))
		copy(idx, at)
	}
	return pooledVec(n, idx, val)
}

// ascendingTargets returns an assign's distinct targets in ascending order:
// indices itself, and a nil order, when they ascend as listed; otherwise a
// sorted copy from the pool, and order[j], the position in indices of the
// j-th smallest target. releaseTargets gives the copies back.
func ascendingTargets(indices []int) (targets, order []int) {
	if ascending(indices) {
		return indices, nil
	}
	targets, order = pool.GetInts(len(indices)), pool.GetInts(len(indices))
	for k := range order {
		order[k] = k
	}
	slices.SortFunc(order, func(p, q int) int { return indices[p] - indices[q] })
	for j, k := range order {
		targets[j] = indices[k]
	}
	return targets, order
}

// releaseTargets gives back what ascendingTargets drew.
func releaseTargets(targets, order []int) {
	if order != nil {
		pool.PutInts(targets)
		pool.PutInts(order)
	}
}

// assignRuns is the Z of a vector assign to the ascending, distinct
// targets: c's entries written by assignRow into storage sized for them and
// the targets.
func assignRuns[D any](c *Vec[D], targets []int, source func(j int) (D, bool), accum func(D, D) D) *Vec[D] {
	m := len(c.Idx) + len(targets)
	idx, val := pool.RawVals[int](m), pool.RawVals[D](m)
	n := assignRow(c.Idx, c.Val, targets, source, accum, idx, val)
	return pooledVec(c.N, idx[:n], val[:n])
}

// assignRow is the assign of one row, the one the vector and the matrix
// assigns share: the row (cIdx, cVal) in which target j, of the ascending,
// distinct targets, takes the value source(j) when source has one (ok) —
// accumulated into the row's entry there when accum is set — and where it
// has none loses the row's entry, or keeps it under accum. It writes by
// position into idx and val, which have room for the row and the targets,
// and returns the length written. Between targets the row is copied a run
// at a time: each target is found in what is left of it by a galloping
// search (seek), so an assign to a handful of targets costs a copy of the
// row and a few compares, not a merge of every entry.
func assignRow[D any](cIdx []int, cVal []D, targets []int, source func(j int) (D, bool), accum func(D, D) D, idx []int, val []D) int {
	n, pc := 0, 0
	for j, t := range targets {
		q := pc + seek(cIdx[pc:], t)
		n += copyRun(cIdx[pc:q], cVal[pc:q], idx[n:], val[n:])
		pc = q
		hit := pc < len(cIdx) && cIdx[pc] == t
		x, ok := source(j)
		switch {
		case hit && accum != nil && ok:
			x = accum(cVal[pc], x)
		case hit && accum != nil:
			x, ok = cVal[pc], true
		}
		if hit {
			pc++
		}
		if ok {
			idx[n], val[n] = t, x
			n++
		}
	}
	return n + copyRun(cIdx[pc:], cVal[pc:], idx[n:], val[n:])
}

// listSource is an assign's source read from the sparse list (idx, val)
// over the source's own positions: target j takes the list's entry at
// order[j], or at j when the targets ascend as listed (order nil) — found
// by a walk then, by a search otherwise.
type listSource[D any] struct {
	idx   []int
	val   []D
	order []int
	p     int
}

func (s *listSource[D]) at(j int) (D, bool) {
	if s.order != nil {
		j = s.order[j]
		s.p = sort.SearchInts(s.idx, j)
	}
	for s.p < len(s.idx) && s.idx[s.p] < j {
		s.p++
	}
	if s.p < len(s.idx) && s.idx[s.p] == j {
		return s.val[s.p], true
	}
	var zero D
	return zero, false
}

// seek returns the number of entries of the ascending list s below t. It
// gallops: doubling steps bracket the answer, and a binary search finds it
// within the bracket, so an answer k costs O(log k) compares.
func seek(s []int, t int) int {
	hi := 1
	for hi <= len(s) && s[hi-1] < t {
		hi *= 2
	}
	lo := hi / 2
	return lo + sort.SearchInts(s[lo:min(hi, len(s))], t)
}
