package sparse

import (
	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/pool"
)

// Fused kernels: each consumes a *virtual* vector — (n, idx, get) where idx
// lists stored positions in increasing order and get(p) yields the value at
// stream position p — instead of a materialized *Vec. The flush-time fusion
// pass (internal/core) wires a producer op's computation into get, so the
// producer's output is never built. Contract shared by all kernels here:
// get is called exactly once per stream position — in increasing position
// order on every path except pushCore's parallel scatter, which evaluates
// contiguous position chunks concurrently, and except pushCore's loops for a
// predefined ⊗ that ignores u (first, pair), which call it not at all — so
// get must be a pure function of committed state (the core's sources are:
// closures over immutable committed stores). Values, and therefore results,
// are identical to materializing first regardless of evaluation order.
//
// Each kernel draws its own fault site ("fuse.kernel.*", registered in
// faults.KernelSites) and reports its own obs timing, so fused execution
// stays observable and fault-injectable as a first-class kernel.

// FusedVecMap is the fused form of apply-over-a-virtual-source: it maps f
// over the stream, keeping the structure. A non-nil mask is the consumer's
// write mask pushed down into the kernel: positions the mask disallows are
// skipped without evaluating f (the final mask merge would discard them
// anyway; skipping the evaluation is the point of the pushdown). Without a
// mask the result keeps the stream's structure and shares its index list.
//
//grblint:hotpath
func FusedVecMap[DA, DC any](n int, idx []int, get func(p int) DA, f func(DA) DC, mask *VecMask) *Vec[DC] {
	faults.Step("fuse.kernel.map")
	done := obs.KernelStart("fuse.map")
	var out *Vec[DC]
	if mask == nil {
		out = &Vec[DC]{N: n, Idx: sharedIdx(idx), Val: make([]DC, len(idx))}
		for p := range out.Val {
			out.Val[p] = f(get(p))
		}
	} else {
		out = &Vec[DC]{N: n, Idx: make([]int, 0, len(idx)), Val: make([]DC, 0, len(idx))}
		cur := allowsCursor{mask: mask}
		for p, i := range idx {
			if !cur.allows(i) {
				continue
			}
			out.Idx = append(out.Idx, i)
			out.Val = append(out.Val, f(get(p)))
		}
	}
	done(out.NVals())
	return out
}

// FusedDotMxV is the pull-style mxv over a virtual input vector: the stream
// is scattered into the dense workspace (evaluating get once per position;
// a full stream needs no presence flags), then the shared row-parallel dot
// loop runs. Bit-exact with materialize-then-DotMxV because the scatter
// visits positions in the same order VecApply would and the row loop is
// dotCore either way.
//
//grblint:hotpath
func (r Ring[DA, DU, DC]) FusedDotMxV(a *CSR[DA], n int, idx []int, get func(p int) DU, mask *VecMask) *Vec[DC] {
	faults.Step("fuse.kernel.mxv.dot")
	done := obs.KernelStart("fuse.mxv.dot")
	dense := make([]DU, n)
	var w *Vec[DC]
	if len(idx) == n {
		for p := range idx {
			dense[p] = get(p)
		}
		w = dotCore(a, dense, nil, r, mask)
	} else {
		present := pool.GetBools(n)
		for p, i := range idx {
			dense[i] = get(p)
			present[i] = true
		}
		w = dotCore(a, dense, present, r, mask)
		pool.PutBools(present)
	}
	done(w.NVals())
	return w
}

// FusedPushMxV is the push-style mxv over a virtual frontier: pushCore
// evaluates get lazily, once per frontier entry (in traversal order on the
// serial path, chunk-concurrently on the parallel one), so the producer's
// values flow straight into the scatter without an intermediate vector.
// Bit-exact with materialize-then-PushMxV (pushCore is shared).
//
//grblint:hotpath
func (r Ring[DA, DU, DC]) FusedPushMxV(a *CSR[DA], idx []int, get func(p int) DU, mask *VecMask) *Vec[DC] {
	faults.Step("fuse.kernel.mxv.push")
	done := obs.KernelStart("fuse.mxv.push")
	w := pushCore(a, idx, get, r, mask)
	done(w.NVals())
	return w
}

// FusedAssignAccum is the fused form of the full-width assign w(:) = src
// over a virtual source: it produces the pre-mask Z content directly from
// the old content c and the stream, without materializing src. With accum
// it is the eWiseAdd union merge (positions in both combine, positions in
// one survive — exactly what AssignExpandVec over the identity index list
// computes); without accum the assignment replaces the content wholesale,
// so Z is the materialized stream. The caller applies its mask merge. A full
// c or a full stream takes union's array path (kernels_vec.go): copy the
// full side, fold the other in with accum(c, v) — get still runs once per
// position, in increasing order. Where the result's positions are one
// side's — the stream's without accum, the full side's with it — it shares
// that side's index list.
//
//grblint:hotpath
func FusedAssignAccum[D any](c *Vec[D], idx []int, get func(p int) D, accum func(D, D) D) *Vec[D] {
	faults.Step("fuse.kernel.assign.accum")
	done := obs.KernelStart("fuse.assign.accum")
	out := &Vec[D]{N: c.N}
	switch {
	case accum == nil || len(idx) == c.N:
		out.Idx = sharedIdx(idx)
		out.Val = make([]D, len(idx))
		for p := range out.Val {
			out.Val[p] = get(p)
		}
		if accum != nil {
			for k, i := range c.Idx {
				out.Val[i] = accum(c.Val[k], out.Val[i])
			}
		}
	case c.Full():
		out.Idx, out.Val = sharedIdx(c.Idx), append([]D(nil), c.Val...)
		for p, i := range idx {
			out.Val[i] = accum(out.Val[i], get(p))
		}
	default:
		out.Idx = make([]int, 0, len(c.Idx)+len(idx))
		out.Val = make([]D, 0, len(c.Idx)+len(idx))
		pc := 0
		for p, i := range idx {
			v := get(p)
			for pc < len(c.Idx) && c.Idx[pc] < i {
				out.Idx = append(out.Idx, c.Idx[pc])
				out.Val = append(out.Val, c.Val[pc])
				pc++
			}
			if pc < len(c.Idx) && c.Idx[pc] == i {
				out.Idx = append(out.Idx, i)
				out.Val = append(out.Val, accum(c.Val[pc], v))
				pc++
			} else {
				out.Idx = append(out.Idx, i)
				out.Val = append(out.Val, v)
			}
		}
		out.Idx = append(out.Idx, c.Idx[pc:]...)
		out.Val = append(out.Val, c.Val[pc:]...)
	}
	done(out.NVals())
	return out
}
