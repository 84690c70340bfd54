package core

import (
	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/sparse"
)

// This file holds what the multiply family shares when it picks a kernel
// per call: the opcode test for the predefined ⟨+,×⟩ (sparse.Ring), the
// recovery wrapper every engine-chosen kernel runs under, and the direction
// rule of the scatter product.

// plusTimes reports whether r is the predefined ⟨+,×⟩, in either operand
// order; format.TryMxMPlusTimes checks the domain.
func plusTimes[DA, DB, DC any](r sparse.Ring[DA, DB, DC]) bool {
	return r.MulOp == sparse.OpTimes && r.AddOp == sparse.OpPlus
}

// runFallible executes a kernel the engine chose over the reference one —
// the dense ⟨+,×⟩ product, the masked dot product, the pull — and converts
// a recoverable injected fault raised inside it — an allocation denial from
// the governor or an OOM/KernelErr from the fault plan, possibly wrapped by
// a worker goroutine's panicBox — into a non-nil fault return, so the caller
// can retry once on the reference kernel before any error is surfaced. Genuine
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

// pushOrPull is where the engine picks a direction for w = Aᵀ ⊕.⊗ u on the
// CSR store. The descriptor says which product is meant, not which kernel
// runs: sparse.PullWins reads the frontier's edge count, the mask and
// whether A has a transpose cached, and the call then runs pull over Aᵀ
// (building and caching it when the rule asked for that) or push over A.
// The two are bit-identical, so nothing downstream can tell. The pull side
// is the engine's own idea, so it is fallible the way the dense and dot
// products are: the build passes the allocation governor first,
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
