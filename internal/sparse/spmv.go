package sparse

import (
	"graphblas/internal/obs"
	"graphblas/internal/pool"
)

// DotMxV computes w(i) = ⊕_k mul(a(i,k), u(k)) — the pull-style (dot
// product) matrix-vector multiply w = A ⊕.⊗ u. Rows are processed in
// parallel, nnz-balanced. A full input vector (every position stored) is
// read as the dense array its Val already is; a partial one is scattered
// into a pooled dense workspace once, over ⊕'s identity.
//
// A non-nil mask is applied inside the kernel: rows the mask disallows are
// skipped entirely, which is the "pull with mask" optimization — the key
// benefit of the API carrying the mask into the operation rather than
// filtering afterwards.
//
// This is the closure form, for callers holding plain functions: it runs the
// closure loop. Ring.DotMxV is the same kernel for a semiring whose
// operators may be predefined.
func DotMxV[DA, DU, DC any](a *CSR[DA], u *Vec[DU], mul func(DA, DU) DC, add func(DC, DC) DC, mask *VecMask) *Vec[DC] {
	return Ring[DA, DU, DC]{Mul: mul, Add: add}.DotMxV(a, u, mask)
}

// DotMxV is the pull kernel under r: a predefined (⊗, ⊕) runs its
// specialized loop, anything else the closures.
//
//grblint:hotpath
func (r Ring[DA, DU, DC]) DotMxV(a *CSR[DA], u *Vec[DU], mask *VecMask) *Vec[DC] {
	done := obs.KernelStart("mxv.dot")
	var w *Vec[DC]
	if u.Full() {
		w = dotCore(a, u.Val, nil, r, mask)
	} else {
		// u's absent slots hold ⊕'s identity, which the loops that absorb
		// it (builtin.go) fold past. Every other loop tests present and
		// never reads them.
		dense := pool.GetVals[DU](u.N)
		if spec := entryFor[DC](r.key()); spec != nil {
			spec.fillIdentity(r.AddOp, operandOf(dense))
		}
		present := pool.GetBools(u.N)
		for p, k := range u.Idx {
			dense[k] = u.Val[p]
			present[k] = true
		}
		w = dotCore(a, dense, present, r, mask)
		pool.PutBools(present)
		pool.PutVals(dense)
	}
	done(w.NVals())
	return w
}

// dotCore is DotMxV's row-parallel pull loop over an input already laid
// out densely: dense[k] is u(k) where present[k] is set, and a nil present
// says every position is stored, which drops the presence test from the
// inner loop. Each row folds its products in ascending k, and each chunk
// writes its rows' entries compactly (emitRows). Over a full u a row emits
// exactly when it stores an entry and the mask allows it, so the result is
// counted from Ptr and the mask and written in place; a partial u may leave
// such a row empty, so its chunks are joined.
//
//grblint:hotpath
func dotCore[DA, DU, DC any](a *CSR[DA], dense []DU, present []bool, r Ring[DA, DU, DC], mask *VecMask) *Vec[DC] {
	return emitRows[DC](a.NRows, a.Ptr, present == nil, dotRows[DA, DU, DC]{a, dense, present, r, mask})
}

// dotRows is dotCore's row kernel.
type dotRows[DA, DU, DC any] struct {
	a       *CSR[DA]
	dense   []DU
	present []bool
	r       Ring[DA, DU, DC]
	mask    *VecMask
}

func (d dotRows[DA, DU, DC]) most(lo, hi int) int { return rowsAllowed(d.a.Ptr, d.mask, lo, hi) }

// emit folds rows [lo, hi) with r's specialized loop when there is one
// (builtin.go), with the closures otherwise.
//
//grblint:hotpath
func (d dotRows[DA, DU, DC]) emit(lo, hi int, idx []int, val []DC) int {
	key := d.r.key()
	if spec := entryFor[DC](key); spec != nil {
		if n, ok := spec.dot(key, csrOf(d.a), operandOf(d.dense), d.present, idx, val, lo, hi, d.mask); ok {
			return n
		}
	}
	a, dense, present, mul, add := d.a, d.dense, d.present, d.r.Mul, d.r.Add
	cur := MaskCursor{Mask: d.mask}
	n := 0
	if present == nil {
		for i := lo; i < hi; i++ {
			p, end := a.Ptr[i], a.Ptr[i+1]
			if p == end || !cur.Allows(i) {
				continue
			}
			acc := mul(a.Val[p], dense[a.ColIdx[p]])
			for p++; p < end; p++ {
				acc = add(acc, mul(a.Val[p], dense[a.ColIdx[p]]))
			}
			if idx != nil {
				idx[n] = i
			}
			val[n] = acc
			n++
		}
		return n
	}
	for i := lo; i < hi; i++ {
		if !cur.Allows(i) {
			continue
		}
		var acc DC
		has := false
		for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
			k := a.ColIdx[p]
			if !present[k] {
				continue
			}
			x := mul(a.Val[p], dense[k])
			if has {
				acc = add(acc, x)
			} else {
				acc = x
				has = true
			}
		}
		if has {
			idx[n], val[n] = i, acc
			n++
		}
	}
	return n
}

// PushMxV computes w(i) = ⊕_k mul(a(k,i), u(k)) — i.e. w = Aᵀ ⊕.⊗ u — by
// scattering each stored entry of u through its row of a (push style). This
// is the natural kernel for frontier expansion when the frontier is sparse:
// work is proportional to the edges incident to the frontier, not to the
// whole matrix.
//
// A non-nil mask filters target positions before accumulation.
//
// This is the closure form, as DotMxV's is; Ring.PushMxV takes a semiring.
func PushMxV[DA, DU, DC any](a *CSR[DA], u *Vec[DU], mul func(DA, DU) DC, add func(DC, DC) DC, mask *VecMask) *Vec[DC] {
	return Ring[DA, DU, DC]{Mul: mul, Add: add}.PushMxV(a, u, mask)
}

// PushMxV is the scatter kernel under r.
//
//grblint:hotpath
func (r Ring[DA, DU, DC]) PushMxV(a *CSR[DA], u *Vec[DU], mask *VecMask) *Vec[DC] {
	done := obs.KernelStart("mxv.push")
	w := pushCore(a, u.Idx, u.Val, r, mask)
	done(w.NVals())
	return w
}

// pullMinEdges is the direction rule's floor: a frontier whose rows hold
// fewer edges is always pushed, a handful of edges scattered in one pass.
// It decides push or pull only; whether a kernel splits across workers is
// parallel.SplitWork's to decide.
const pullMinEdges = 2048

// pushFlopCost and pullFlopCost price one scattered contribution of the push
// kernel against one inner-loop step of the dot kernel, in a common unit.
// The ratio is measured, not counted: in the crossover table of
// EXPERIMENTS.md E8b (BenchmarkAblation_MxVCrossover, the one-worker
// column) the push's SPA pass, a stamp test and a scattered write per
// contribution, and the pull over an Aᵀ in hand, which reads an entry once
// and tests u's presence flag, break even on a frontier holding between
// 3/4 and 7/8 of the edges; 4 : 3 puts the break-even at 3/4.
// denseFlopCost is pullFlopCost for a pull under + with no presence test,
// a loop that absorbs ⊕'s identity (builtin.go), read off the ⟨+, second⟩
// rows of the same table (E25): the predefined push costs about four times
// the presence-free pull per edge, and the two break even on a frontier
// holding between 1/8 and 1/4 of the edges.
//
// transposeReuse is the number of dense calls a transpose built for one of
// them is expected to serve. A build costs about one pull over every edge
// (same table: 215 µs against 200–283), more than any single push it
// replaces, so it is charged as nnz(A)/transposeReuse pull steps at
// pullFlopCost: at six the break-even moves from 3/4 of the edges to 7/8,
// where the third call has repaid the build (327 µs pushed against 231
// pulled) — and the callers that send such frontiers are iterations that
// send them again: PageRank's ten sweeps, a personalized rank's twelve, a
// label or distance vector on its way to a fixed point. A single level of a
// traversal does not get there. A presence-free pull is cheaper, its build
// is not, so the charge stays at pullFlopCost a step whatever the ring, and
// moves that pull's break-even from 1/4 of the edges to 3/8.
const (
	pushFlopCost   = 4
	pullFlopCost   = 3
	denseFlopCost  = 1
	transposeReuse = 6
)

// PullWins is the direction rule of the mxv family: for w = Aᵀ ⊕.⊗ u under
// r, where aPtr is A's row pointer and uIdx the stored positions of u, it
// reports whether the dot kernel over Aᵀ (DotMxV) should run instead of the
// scatter over A (PushMxV). Push work is the edges leaving u's structure,
// Σ_{k∈u}|A(k,:)|; below pullMinEdges the scatter is one pass over a
// handful of edges and always wins. Pull work is nnz(Aᵀ) — cut down to the
// rows the mask admits when at, the transpose, is in the caller's hands to
// count them from; plus the amortised build when it is not (at == nil). A
// pull step is priced at denseFlopCost when r's loop folds a partial u
// under + with no presence test (r.pullsDense), at pullFlopCost otherwise;
// the build, whatever the ring, at pullFlopCost a step.
//
// O(|u| + |mask|), read from the operands alone. The two kernels give
// bit-identical results (row j of Aᵀ lists the contributions to w(j) in
// ascending k, the order push folds them in), so the choice never shows in
// a result.
func (r Ring[DA, DU, DC]) PullWins(aPtr []int, uIdx []int, at *CSR[DA], mask *VecMask) bool {
	push := 0
	for _, k := range uIdx {
		push += aPtr[k+1] - aPtr[k]
	}
	if push < pullMinEdges {
		return false
	}
	pull, build := aPtr[len(aPtr)-1], 0
	switch {
	case at == nil:
		build = pull / transposeReuse
	case mask == nil:
	case mask.Comp:
		for _, j := range mask.Structure {
			pull -= at.Ptr[j+1] - at.Ptr[j]
		}
	default:
		pull = 0
		for _, j := range mask.Idx {
			pull += at.Ptr[j+1] - at.Ptr[j]
		}
	}
	step := pullFlopCost
	if r.pullsDense() {
		step = denseFlopCost
	}
	return pushFlopCost*push >= step*pull+pullFlopCost*build
}

// pullsDense reports whether DotMxV under r folds a partial u with no
// presence test at the cost denseFlopCost prices: r's loop absorbs ⊕'s
// identity, and ⊕ is + (builtin.go, domain.pullsDense).
func (r Ring[DA, DU, DC]) pullsDense() bool {
	key := r.key()
	spec := entryFor[DC](key)
	return spec != nil && spec.pullsDense(key, kindOf[DA](), kindOf[DU]())
}

// pushCore is PushMxV's scatter: one pass of a sparse accumulator over the
// frontier (uIdx, uVal), u's stored row indices in increasing order and
// their values, at every frontier size and worker count. Each contribution
// is folded into its target as it comes, so a target folds its terms in
// ascending k — the order the pull over Aᵀ folds them in, which keeps the
// two directions bit-identical — and the targets are gathered in order.
// The pass runs r's specialized loop when there is one (builtin.go), which
// reads a frontier value only when ⊗ does. It does not split across
// workers: a scatter that kept this fold order on two workers beat it by
// 7 % at most, at half a million edges and more (EXPERIMENTS E27, E28). The
// accumulator's three arrays and the mask's stamps come from the pool.
//
//grblint:hotpath
func pushCore[DA, DU, DC any](a *CSR[DA], uIdx []int, uVal []DU, r Ring[DA, DU, DC], mask *VecMask) *Vec[DC] {
	var allowed *BitSPA
	comp := false
	if mask != nil {
		allowed = &BitSPA{stamp: pool.GetInts(a.NCols)}
		defer pool.PutInts(allowed.stamp)
		allowed.Reset()
		comp = mask.Comp
		if comp {
			allowed.MarkAll(mask.Structure)
		} else {
			allowed.MarkAll(mask.Idx)
		}
	}
	stamp := pool.GetInts(a.NCols)
	nz := pool.GetInts(a.NCols)
	spa := SPA[DC]{val: pool.RawVals[DC](a.NCols), stamp: stamp, nz: nz[:0]}
	spa.Reset()
	done := false
	key := r.key()
	if spec := entryFor[DC](key); spec != nil {
		spa.nz, done = spec.push(key, csrOf(a), uIdx, operandOf(uVal), allowed, comp, spa.val, spa.stamp, spa.cur, spa.nz)
	}
	if !done {
		for pu, k := range uIdx {
			uv := uVal[pu]
			for p := a.Ptr[k]; p < a.Ptr[k+1]; p++ {
				i := a.ColIdx[p]
				if allowed != nil && allowed.Has(i) == comp {
					continue
				}
				spa.Accumulate(i, r.Mul(a.Val[p], uv), r.Add)
			}
		}
	}
	var w *Vec[DC]
	if spa.Len() == a.NCols {
		// Every target was reached: the accumulator's values, fresh to this
		// call, are the result's in position order.
		w = vecOf(a.NCols, nil, spa.val)
	} else {
		idx, val := spa.Gather(pool.RawVals[int](spa.Len())[:0], pool.RawVals[DC](spa.Len())[:0])
		w = pooledVec(a.NCols, idx, val)
		pool.Recycle(spa.val)
	}
	pool.PutInts(nz)
	pool.PutInts(stamp)
	return w
}
