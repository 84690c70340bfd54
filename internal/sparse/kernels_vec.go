package sparse

import (
	"slices"
	"sort"

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
	e := opEntry[D](op)
	if !a.Full() && !b.Full() {
		m := len(a.Idx) + len(b.Idx)
		idx, val := pool.RawVals[int](m), pool.RawVals[D](m)
		n, ok := 0, false
		if e != nil {
			n, ok = e.union(op, a, b, idx, val)
		}
		if !ok {
			n = unionRow(a.Idx, a.Val, b.Idx, b.Val, add, idx, val)
		}
		return pooledVec(a.N, idx[:n], val[:n])
	}
	w := &Vec[D]{N: a.N}
	if a.Full() {
		shareIdx(w, a)
		w.Val = cloneVals(a.Val)
		if e == nil || !e.intoRight(op, b, w.Val) {
			for k, i := range b.Idx {
				w.Val[i] = add(w.Val[i], b.Val[k])
			}
		}
		return w
	}
	shareIdx(w, b)
	w.Val = cloneVals(b.Val)
	if e == nil || !e.intoLeft(op, a, w.Val) {
		for k, i := range a.Idx {
			w.Val[i] = add(a.Val[k], w.Val[i])
		}
	}
	return w
}

// unionRow is the slice-level eWiseAdd merge under the closure add, written
// by position into idx and val, which have room for both sides. It returns
// the merged length.
func unionRow[D any](aIdx []int, aVal []D, bIdx []int, bVal []D, add func(D, D) D, idx []int, val []D) int {
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
	e := opEntry[DC](op)
	var w *Vec[DC]
	switch {
	case b.Full():
		w = &Vec[DC]{N: a.N, Val: pool.RawVals[DC](len(a.Idx))}
		shareIdx(w, a)
		if e == nil || !e.pickRight(op, a.Idx, operandOf(a.Val), operandOf(b.Val), w.Val) {
			for k, i := range a.Idx {
				w.Val[k] = mul(a.Val[k], b.Val[i])
			}
		}
	case a.Full():
		w = &Vec[DC]{N: a.N, Val: pool.RawVals[DC](len(b.Idx))}
		shareIdx(w, b)
		if e == nil || !e.pickLeft(op, b.Idx, operandOf(a.Val), operandOf(b.Val), w.Val) {
			for k, i := range b.Idx {
				w.Val[k] = mul(a.Val[i], b.Val[k])
			}
		}
	default:
		m := min(len(a.Idx), len(b.Idx))
		idx, val := pool.RawVals[int](m), pool.RawVals[DC](m)
		n, ok := 0, false
		if e != nil {
			n, ok = e.intersect(op, a.Idx, operandOf(a.Val), b.Idx, operandOf(b.Val), idx, val)
		}
		if !ok {
			n = intersectRow(a.Idx, a.Val, b.Idx, b.Val, mul, idx, val)
		}
		w = pooledVec(a.N, idx[:n], val[:n])
	}
	done(w.NVals())
	return w
}

// intersectRow is the slice-level eWiseMult merge under the closure mul,
// written by position into idx and val, which have room for the smaller
// side. It returns the merged length.
func intersectRow[DA, DB, DC any](aIdx []int, aVal []DA, bIdx []int, bVal []DB, mul func(DA, DB) DC, idx []int, val []DC) int {
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
// op names add as VecUnion's op does; the compiled fold of min or max stops
// at the domain's bound instead, which leaves the result as term would.
func VecReduce[D any](a *Vec[D], add func(D, D) D, op Opcode, identity D, term func(D) bool) (D, bool) {
	faults.Step("sparse.kernel.reduce.vec")
	done := obs.KernelStart("reduce.vec")
	acc, ok := identity, false
	if e := opEntry[D](op); e != nil {
		acc, ok = e.reduce(op, identity, a.Val)
	}
	if !ok {
		for _, v := range a.Val {
			acc = add(acc, v)
			if term != nil && term(acc) {
				break
			}
		}
	}
	done(len(a.Val))
	return acc, len(a.Val) > 0
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

// assignEntry pairs a target position with an optional source value for the
// single-pass assign merges below.
type assignEntry[D any] struct {
	target int
	val    D
	has    bool // source has an entry at this position
}

// sortAssign sorts assignment entries by target position. Target positions
// are unique (the core layer rejects duplicate assign indices). A list
// already in order is left as it is after one pass.
func sortAssign[D any](es []assignEntry[D]) {
	if slices.IsSortedFunc(es, func(x, y assignEntry[D]) int { return x.target - y.target }) {
		return
	}
	// Insertion sort for short lists, in-place quicksort of the entries
	// otherwise.
	if len(es) <= 48 {
		for i := 1; i < len(es); i++ {
			x := es[i]
			j := i - 1
			for j >= 0 && es[j].target > x.target {
				es[j+1] = es[j]
				j--
			}
			es[j+1] = x
		}
		return
	}
	quickSortAssign(es)
}

func quickSortAssign[D any](es []assignEntry[D]) {
	for len(es) > 48 {
		m := len(es) / 2
		if es[0].target > es[m].target {
			es[0], es[m] = es[m], es[0]
		}
		if es[0].target > es[len(es)-1].target {
			es[0], es[len(es)-1] = es[len(es)-1], es[0]
		}
		if es[m].target > es[len(es)-1].target {
			es[m], es[len(es)-1] = es[len(es)-1], es[m]
		}
		pivot := es[m].target
		i, j := 0, len(es)-1
		for i <= j {
			for es[i].target < pivot {
				i++
			}
			for es[j].target > pivot {
				j--
			}
			if i <= j {
				es[i], es[j] = es[j], es[i]
				i++
				j--
			}
		}
		if j < len(es)-i {
			quickSortAssign(es[:j+1])
			es = es[i:]
		} else {
			quickSortAssign(es[i:])
			es = es[:j+1]
		}
	}
	for i := 1; i < len(es); i++ {
		x := es[i]
		j := i - 1
		for j >= 0 && es[j].target > x.target {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = x
	}
}

// mergeAssign merges the old content (idx/val slices) with sorted assignment
// entries, producing new sorted slices. Within the assigned positions the
// entry is replaced (or deleted when the source has none and accum is nil,
// or kept when accum is non-nil); outside them the old entry is kept.
func mergeAssign[D any](cIdx []int, cVal []D, es []assignEntry[D], accum func(D, D) D) ([]int, []D) {
	n := len(cIdx) + len(es)
	return mergeAssignInto(cIdx, cVal, es, accum, make([]int, 0, n), make([]D, 0, n))
}

// mergeAssignInto is the merge, appending to outIdx and outVal.
func mergeAssignInto[D any](cIdx []int, cVal []D, es []assignEntry[D], accum func(D, D) D, outIdx []int, outVal []D) ([]int, []D) {
	pc, pe := 0, 0
	for pc < len(cIdx) || pe < len(es) {
		switch {
		case pe >= len(es) || (pc < len(cIdx) && cIdx[pc] < es[pe].target):
			outIdx = append(outIdx, cIdx[pc])
			outVal = append(outVal, cVal[pc])
			pc++
		case pc >= len(cIdx) || es[pe].target < cIdx[pc]:
			if es[pe].has {
				outIdx = append(outIdx, es[pe].target)
				outVal = append(outVal, es[pe].val)
			}
			pe++
		default: // both present at the same position
			switch {
			case es[pe].has && accum != nil:
				outIdx = append(outIdx, cIdx[pc])
				outVal = append(outVal, accum(cVal[pc], es[pe].val))
			case es[pe].has:
				outIdx = append(outIdx, es[pe].target)
				outVal = append(outVal, es[pe].val)
			case accum != nil: // source empty, accum keeps old value
				outIdx = append(outIdx, cIdx[pc])
				outVal = append(outVal, cVal[pc])
			}
			// source empty and no accum: position is deleted
			pc++
			pe++
		}
	}
	return outIdx, outVal
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
		// The source of target j is u(k) for k = order[j], or k = j when
		// the targets ascend as listed; a walk finds u's entry at an
		// ascending k, a search at any other.
		targets, order := ascendingTargets(indices)
		pu := 0
		z = assignRuns(c, targets, func(j int) (D, bool) {
			if order != nil {
				return u.Get(order[j])
			}
			for pu < len(u.Idx) && u.Idx[pu] < j {
				pu++
			}
			if pu < len(u.Idx) && u.Idx[pu] == j {
				return u.Val[pu], true
			}
			var zero D
			return zero, false
		}, accum)
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
			if e := opEntry[D](accumOp); e == nil || !e.intoLeft(accumOp, c, z.Val) {
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

// assignRuns is the Z of an assign to the ascending, distinct targets: c's
// content, in which target j takes the value source(j) when source has one
// (ok) — accumulated into c's entry there when accum is set — and where it
// has none loses c's entry, or keeps it under accum. Between targets Z is
// c, copied a run at a time: each target is found in what is left of c by
// a galloping search (seek), so an assign to a handful of targets costs a
// copy of c and a few compares, not a merge of every entry.
func assignRuns[D any](c *Vec[D], targets []int, source func(j int) (D, bool), accum func(D, D) D) *Vec[D] {
	m := len(c.Idx) + len(targets)
	idx, val := pool.RawVals[int](m), pool.RawVals[D](m)
	n, pc := 0, 0
	for j, t := range targets {
		q := pc + seek(c.Idx[pc:], t)
		n += copyRun(c.Idx[pc:q], c.Val[pc:q], idx[n:], val[n:])
		pc = q
		hit := pc < len(c.Idx) && c.Idx[pc] == t
		x, ok := source(j)
		switch {
		case hit && accum != nil && ok:
			x = accum(c.Val[pc], x)
		case hit && accum != nil:
			x, ok = c.Val[pc], true
		}
		if hit {
			pc++
		}
		if ok {
			idx[n], val[n] = t, x
			n++
		}
	}
	n += copyRun(c.Idx[pc:], c.Val[pc:], idx[n:], val[n:])
	return pooledVec(c.N, idx[:n], val[:n])
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
