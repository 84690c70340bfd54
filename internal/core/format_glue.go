package core

import (
	"graphblas/internal/faults"
	"graphblas/internal/format"
	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/sparse"
)

// This file connects the multiply family to the multi-format storage engine
// (internal/format): each operation asks its matrix operand which layout the
// engine selects for the access pattern at hand and dispatches to the
// matching kernel, with a further specialized path when the semiring is the
// predefined arithmetic ⟨+,×⟩ over a machine-numeric domain — known from
// the operators' opcodes (sparse.Ring), as every specialized loop is.

// plusTimes reports whether r is the predefined ⟨+,×⟩, in either operand
// order; the format package's arithmetic kernels check the domain.
func plusTimes[DA, DB, DC any](r sparse.Ring[DA, DB, DC]) bool {
	return r.MulOp == sparse.OpTimes && r.AddOp == sparse.OpPlus
}

// runFallible executes a format-engine fast path and converts a recoverable
// injected fault raised inside it — an allocation denial from the governor
// or an OOM/KernelErr from the fault plan, possibly wrapped by a worker
// goroutine's panicBox — into a non-nil fault return, so the caller can
// retry once on the generic CSR path before any error is surfaced. Genuine
// panics and Panic-kind faults propagate: those model faulty user-operator
// code, which must not be silently retried (the operator already ran on
// some elements).
func runFallible[T any](f func() (T, bool)) (out T, used bool, fault *faults.Fault) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		v := r
		if pv, ok := v.(*parallel.Panic); ok {
			v = pv.Val
		}
		if fl, ok := v.(*faults.Fault); ok && fl.Kind != faults.PanicFault {
			var zero T
			out, used, fault = zero, false, fl
			return
		}
		panic(r)
	}()
	out, used = f()
	return
}

// dotMxVDispatch runs the pull-style w = A ⊕.⊗ u kernel in the layout the
// storage engine picks for A: the specialized bitmap arithmetic kernel when
// the semiring is the predefined ⟨+,×⟩, the generic bitmap kernel, the
// hypersparse kernel, or the CSR reference kernel. A fast-path kernel that
// fails with a recoverable fault (injected failure or governed allocation
// denial) is retried once on the CSR reference path. sp (nil when tracing is
// off) records the layout that actually produced the result and any retry.
func dotMxVDispatch[DC, DA, DU any](a *Matrix[DA], ud *sparse.Vec[DU], r sparse.Ring[DA, DU, DC], vm *sparse.VecMask, sp *obs.Span) *sparse.Vec[DC] {
	w, ok, fault := runFallible(func() (*sparse.Vec[DC], bool) {
		if bm := a.bitmapForRead(format.HintMxV); bm != nil {
			fmtBitmapOps.Add(1)
			if plusTimes(r) {
				if w, ok := format.TryDotMxVPlusTimes(bm, ud, vm); ok {
					fmtFastOps.Add(1)
					sp.NoteLayout("bitmap-fast")
					return w.(*sparse.Vec[DC]), true
				}
			}
			sp.NoteLayout("bitmap")
			return format.DotMxVBitmap(bm, ud, r.Mul, r.Add, vm), true
		}
		if hy := a.hyperForRead(format.HintMxV); hy != nil {
			fmtHyperOps.Add(1)
			sp.NoteLayout("hyper")
			return format.DotMxVHyper(hy, ud, r.Mul, r.Add, vm), true
		}
		return nil, false
	})
	if ok {
		return w
	}
	if fault != nil {
		execRetries.Add(1)
		sp.NoteRetry()
	}
	sp.NoteLayout("csr")
	return r.DotMxV(a.mdat(), ud, vm)
}

// pushMxVDispatch runs w = Aᵀ ⊕.⊗ u, the product MxV+TRAN0 and VxM name,
// for a materialized u: the hypersparse scatter when the engine picks that
// layout for A (frontier expansion over a nearly-empty matrix then skips the
// empty-row scan entirely), otherwise whichever direction pushOrPull runs on
// the CSR store. A failed hypersparse kernel is retried once on the CSR
// path. sp records the consumed layout and any retry, as in dotMxVDispatch.
func pushMxVDispatch[DC, DA, DU any](a *Matrix[DA], ud *sparse.Vec[DU], r sparse.Ring[DA, DU, DC], vm *sparse.VecMask, sp *obs.Span) *sparse.Vec[DC] {
	w, ok, fault := runFallible(func() (*sparse.Vec[DC], bool) {
		if hy := a.hyperForRead(format.HintMxV); hy != nil {
			fmtHyperOps.Add(1)
			sp.NoteLayout("hyper")
			return format.PushMxVHyper(hy, ud, r.Mul, r.Add, vm), true
		}
		return nil, false
	})
	if ok {
		return w
	}
	if fault != nil {
		execRetries.Add(1)
		sp.NoteRetry()
	}
	return pushOrPull(a, ud, r, vm, sp)
}

// pushOrPull is where the engine picks a direction for w = Aᵀ ⊕.⊗ u on the
// CSR store. The descriptor says which product is meant, not which kernel
// runs: sparse.PullWins reads the frontier's edge count, the mask and
// whether A has a transpose cached, and the call then runs pull over Aᵀ
// (building and caching it when the rule asked for that) or push over A.
// The two are bit-identical, so nothing downstream can tell. The pull side
// is the engine's own idea, so it is fallible the way the bitmap and
// dot-SpGEMM kernels are: the build passes the allocation governor first,
// and a recoverable fault anywhere in it falls back to push with one retry
// counted. vm is the resolved mask.
func pushOrPull[DC, DA, DU any](a *Matrix[DA], ud *sparse.Vec[DU], r sparse.Ring[DA, DU, DC], vm *sparse.VecMask, sp *obs.Span) *sparse.Vec[DC] {
	ad, at := a.mdatWithTranspose()
	if sparse.PullWins(ad.Ptr, ud.Idx, at, vm) {
		w, ok, _ := runFallible(func() (*sparse.Vec[DC], bool) {
			faults.Step("format.kernel.csr.pull")
			if at == nil {
				faults.GovernAlloc("format.alloc.transpose", ad.ApproxBytes())
				at = a.transposed()
			}
			return r.DotMxV(at, ud, vm), true
		})
		if ok {
			mxvPull.Add(1)
			sp.NoteLayout("csr-pull")
			return w
		}
		// Not ok is a recoverable fault (anything else has propagated).
		execRetries.Add(1)
		sp.NoteRetry()
	}
	mxvPush.Add(1)
	sp.NoteLayout("csr")
	return r.PushMxV(ad, ud, vm)
}
