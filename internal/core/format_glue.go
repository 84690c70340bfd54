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
// built-in arithmetic ⟨+,×⟩ over a machine-numeric domain.

// plusTimesSemiring reports whether op is the built-in arithmetic ⟨+,×⟩
// semiring over one of the domains the specialized kernels support. The
// builtin operator names are necessary but not trusted alone — a user could
// register an operator named "times" with different semantics — so the
// functions are sample-evaluated (2·3 = 3·2 = 6, 2+3 = 5) before the fast
// path is taken. The dynamic type assertion doubles as the check that all
// three domains coincide.
func plusTimesSemiring[DA, DB, DC any](op Semiring[DA, DB, DC]) bool {
	if op.Mul.Name != "times" || op.Add.Op.Name != "plus" {
		return false
	}
	switch mul := any(op.Mul.F).(type) {
	case func(float64, float64) float64:
		add, ok := any(op.Add.Op.F).(func(float64, float64) float64)
		return ok && mul(2, 3) == 6 && mul(3, 2) == 6 && add(2, 3) == 5
	case func(float32, float32) float32:
		add, ok := any(op.Add.Op.F).(func(float32, float32) float32)
		return ok && mul(2, 3) == 6 && mul(3, 2) == 6 && add(2, 3) == 5
	case func(int, int) int:
		add, ok := any(op.Add.Op.F).(func(int, int) int)
		return ok && mul(2, 3) == 6 && mul(3, 2) == 6 && add(2, 3) == 5
	case func(int32, int32) int32:
		add, ok := any(op.Add.Op.F).(func(int32, int32) int32)
		return ok && mul(2, 3) == 6 && mul(3, 2) == 6 && add(2, 3) == 5
	case func(int64, int64) int64:
		add, ok := any(op.Add.Op.F).(func(int64, int64) int64)
		return ok && mul(2, 3) == 6 && mul(3, 2) == 6 && add(2, 3) == 5
	}
	return false
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
// the semiring is genuinely ⟨+,×⟩, the generic bitmap kernel, the
// hypersparse kernel, or the CSR reference kernel. A fast-path kernel that
// fails with a recoverable fault (injected failure or governed allocation
// denial) is retried once on the CSR reference path. sp (nil when tracing is
// off) records the layout that actually produced the result and any retry.
func dotMxVDispatch[DC, DA, DU any](a *Matrix[DA], ud *sparse.Vec[DU], op Semiring[DA, DU, DC], vm *sparse.VecMask, sp *obs.Span) *sparse.Vec[DC] {
	r, ok, fault := runFallible(func() (*sparse.Vec[DC], bool) {
		if bm := a.bitmapForRead(format.HintMxV); bm != nil {
			fmtBitmapOps.Add(1)
			if plusTimesSemiring(op) {
				if r, ok := format.TryDotMxVPlusTimes(bm, ud, vm); ok {
					fmtFastOps.Add(1)
					sp.NoteLayout("bitmap-fast")
					return r.(*sparse.Vec[DC]), true
				}
			}
			sp.NoteLayout("bitmap")
			return format.DotMxVBitmap(bm, ud, op.Mul.F, op.Add.Op.F, vm), true
		}
		if hy := a.hyperForRead(format.HintMxV); hy != nil {
			fmtHyperOps.Add(1)
			sp.NoteLayout("hyper")
			return format.DotMxVHyper(hy, ud, op.Mul.F, op.Add.Op.F, vm), true
		}
		return nil, false
	})
	if ok {
		return r
	}
	if fault != nil {
		execRetries.Add(1)
		sp.NoteRetry()
	}
	sp.NoteLayout("csr")
	return sparse.DotMxV(a.mdat(), ud, op.Mul.F, op.Add.Op.F, vm)
}

// pushMxVDispatch runs w = Aᵀ ⊕.⊗ u, the product MxV+TRAN0 and VxM name,
// for a materialized u: the hypersparse scatter when the engine picks that
// layout for A (frontier expansion over a nearly-empty matrix then skips the
// empty-row scan entirely), otherwise whichever direction pushOrPull runs on
// the CSR store. A failed hypersparse kernel is retried once on the CSR
// path. sp records the consumed layout and any retry, as in dotMxVDispatch.
func pushMxVDispatch[DC, DA, DU any](a *Matrix[DA], ud *sparse.Vec[DU], mul func(DA, DU) DC, add func(DC, DC) DC, vm *sparse.VecMask, sp *obs.Span) *sparse.Vec[DC] {
	r, ok, fault := runFallible(func() (*sparse.Vec[DC], bool) {
		if hy := a.hyperForRead(format.HintMxV); hy != nil {
			fmtHyperOps.Add(1)
			sp.NoteLayout("hyper")
			return format.PushMxVHyper(hy, ud, mul, add, vm), true
		}
		return nil, false
	})
	if ok {
		return r
	}
	if fault != nil {
		execRetries.Add(1)
		sp.NoteRetry()
	}
	return pushOrPull(a, ud.Idx, vm, sp,
		func(at *sparse.CSR[DA]) *sparse.Vec[DC] { return sparse.DotMxV(at, ud, mul, add, vm) },
		func(ad *sparse.CSR[DA]) *sparse.Vec[DC] { return sparse.PushMxV(ad, ud, mul, add, vm) })
}

// pushOrPull is where the engine picks a direction for w = Aᵀ ⊕.⊗ u on the
// CSR store — the one place, for the unfused dispatch above and the fused
// consumers in ops_mxm.go alike. The descriptor says which product is meant,
// not which kernel runs: sparse.PullWins reads the frontier's edge count,
// the mask and whether A has a transpose cached, and the call then runs
// pull over Aᵀ (building and caching it when the rule asked for that) or
// push over A. The two are bit-identical, so nothing downstream can tell.
// The pull side is the engine's own idea, so it is fallible the way the
// bitmap and dot-SpGEMM kernels are: the build passes the allocation
// governor first, and a recoverable fault anywhere in it falls back to push
// with one retry counted. uIdx is u's structure, vm the resolved mask.
func pushOrPull[DC, DA any](a *Matrix[DA], uIdx []int, vm *sparse.VecMask, sp *obs.Span,
	pull func(at *sparse.CSR[DA]) *sparse.Vec[DC], push func(ad *sparse.CSR[DA]) *sparse.Vec[DC]) *sparse.Vec[DC] {
	ad, at := a.mdatWithTranspose()
	if sparse.PullWins(ad.Ptr, uIdx, at, vm) {
		r, ok, _ := runFallible(func() (*sparse.Vec[DC], bool) {
			faults.Step("format.kernel.csr.pull")
			if at == nil {
				faults.GovernAlloc("format.alloc.transpose", ad.ApproxBytes())
				at = a.transposed()
			}
			return pull(at), true
		})
		if ok {
			mxvPull.Add(1)
			sp.NoteLayout("csr-pull")
			return r
		}
		// Not ok is a recoverable fault (anything else has propagated).
		execRetries.Add(1)
		sp.NoteRetry()
	}
	mxvPush.Add(1)
	sp.NoteLayout("csr")
	return push(ad)
}

// fusedPushOrPull is pushOrPull for a fused consumer: u is the virtual
// vector (n, idx, get) of an upstream producer and the kernels are the fused
// pair, which run on the CSR store only (the fused path trades the
// alternate-layout kernels for eliding the intermediate).
func fusedPushOrPull[DC, DA, DU any](a *Matrix[DA], n int, idx []int, get func(p int) DU, mul func(DA, DU) DC, add func(DC, DC) DC, vm *sparse.VecMask, sp *obs.Span) *sparse.Vec[DC] {
	return pushOrPull(a, idx, vm, sp,
		func(at *sparse.CSR[DA]) *sparse.Vec[DC] { return sparse.FusedDotMxV(at, n, idx, get, mul, add, vm) },
		func(ad *sparse.CSR[DA]) *sparse.Vec[DC] { return sparse.FusedPushMxV(ad, idx, get, mul, add, vm) })
}
