package core

import (
	"graphblas/internal/faults"
	"graphblas/internal/format"
	"graphblas/internal/obs"
	"graphblas/internal/sparse"
)

// This file implements the matrix-multiplication family of Table II:
//
//	mxm:  C ⊙= A ⊕.⊗ B
//	mxv:  w ⊙= A ⊕.⊗ u
//	vxm:  wᵀ ⊙= uᵀ ⊕.⊗ A
//
// following the three-step semantics of Section VI: (1) form the internal
// operands from the arguments per the descriptor, (2) carry out the
// computation, (3) write the internal result into the output under the
// optional accumulator and write mask. Output aliasing an input is
// permitted: every kernel produces fresh storage before the write-back.

// MxM computes C ⊙= A ⊕.⊗ B over a semiring (GrB_mxm, Figure 2). mask may
// be nil (NoMask); accum may be the zero BinaryOp (NoAccum) for assignment
// semantics; desc may be nil for defaults.
func MxM[DC, DA, DB, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], op Semiring[DA, DB, DC], a *Matrix[DA], b *Matrix[DB], desc *Descriptor) error {
	const name = "MxM"
	tran0, tran1 := desc.tran0(), desc.tran1()
	var s opSpec
	wb := matOp(&s, name, c, mask, accum, desc, adoptT)
	A, B := s.input(matArg(a, tran0)), s.input(matArg(b, tran1))
	s.conform(A.nc == B.nr, A, B)
	s.yields(shape{nr: A.nr, nc: B.nc})
	if err := s.check(op.Defined(), "semiring"); err != nil {
		return err
	}
	r := op.ring()
	// The span is opened here (rather than by enqueue) so the closure can
	// record which kernel ran.
	sp := obs.Begin(name)
	s.span = sp
	// Two kernels may run ahead of Gustavson's, each chosen per call from
	// the operands alone, and each falls through to Gustavson with one retry
	// counted when it fails with a recoverable fault. An unmasked,
	// unaccumulated ⟨+,×⟩ product over a B at least 4 % full multiplies
	// into dense rows (format.DenseProductWins). With INP1 transposition,
	// under a non-complemented mask, the dot kernel computes A·Bᵀ from B as
	// stored when sparse.DotMaskedWins says its work is below Gustavson's
	// plus the transpose.
	dense := mask == nil && wb.accumF == nil && !tran1 && plusTimes(r)
	return enqueue(s, func() error {
		ad := a.oriented(tran0)
		mm := wb.maskNow()
		// Every kernel below applies mm itself — a non-complemented mask
		// confines its result T to M's effective pattern, a complemented one
		// keeps T off M's structure — so T never holds a position the mask
		// denies, which is what lets the adoptT commit take T as C whenever
		// the operation overwrites C.
		commit := func(t *sparse.CSR[DC]) {
			sp.AddBytes(t.ApproxBytes())
			wb.write(t, mm)
		}
		var handled bool
		var fault *faults.Fault
		if bd, bt := b.mdatWithTranspose(); dense && format.DenseProductWins(ad.NRows, bd.NRows, bd.NCols, bd.NNZ()) {
			_, handled, fault = runFallible(func() (struct{}, bool) {
				prod, ok := format.TryMxMPlusTimes(ad, bd)
				if !ok {
					return struct{}{}, false
				}
				fmtFastOps.Add(1)
				sp.NoteLayout("dense")
				commit(prod.(*sparse.CSR[DC]))
				return struct{}{}, true
			})
		} else if tran1 && mm != nil && !mm.Comp && sparse.DotMaskedWins(ad, bd, bt, mm) {
			_, handled, fault = runFallible(func() (struct{}, bool) {
				sp.NoteLayout("csr-dot")
				commit(r.SpGEMMDotMasked(ad, bd, mm))
				return struct{}{}, true
			})
		}
		if handled {
			return nil
		}
		if fault != nil {
			execRetries.Add(1)
			sp.NoteRetry()
		}
		sp.NoteLayout("csr")
		commit(r.SpGEMM(ad, b.oriented(tran1), mm))
		return nil
	})
}

// MxV computes w ⊙= A ⊕.⊗ u (GrB_mxv). Without GrB_TRAN on INP0 a
// pull-style dot kernel is used (the mask skips whole rows). With it the
// product is Aᵀ ⊕.⊗ u and the engine picks the direction per call
// (pushOrPull): a push-style kernel scatters the stored entries of u
// through the rows of A, doing work proportional to the edges incident on
// u's structure, unless u is dense enough that the dot kernel over A's
// cached transpose does less.
func MxV[DC, DA, DU, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], op Semiring[DA, DU, DC], a *Matrix[DA], u *Vector[DU], desc *Descriptor) error {
	const name = "MxV"
	tran0 := desc.tran0()
	var s opSpec
	wb := vecOp(&s, name, w, mask, accum, desc, writeT)
	A, U := s.input(matArg(a, tran0)), s.input(vecArg(u))
	s.conform(A.nc == U.nr, A, U)
	s.yields(vecShape(A.nr))
	if err := s.check(op.Defined(), "semiring"); err != nil {
		return err
	}
	r := op.ring()
	sp := obs.Begin(name)
	s.span = sp
	return enqueue(s, func() error {
		vm := wb.maskNow()
		var t *sparse.Vec[DC]
		if tran0 {
			t = pushOrPull(a, u.vdat(), r, vm, sp)
		} else {
			sp.NoteLayout("csr")
			t = r.DotMxV(a.mdat(), u.vdat(), vm)
		}
		sp.AddBytes(t.ApproxBytes())
		wb.write(t, vm)
		return nil
	})
}

// VxM computes wᵀ ⊙= uᵀ ⊕.⊗ A (GrB_vxm). The descriptor's INP1 field
// selects transposition of A. Without it the engine picks the direction per
// call as MxV+TRAN0 does: a push-style kernel walks u's stored entries
// through the rows of A (the natural sparse-frontier expansion), or, for a
// dense u, the dot kernel runs over A's cached transpose. With it, a
// pull-style dot kernel runs over the rows of A.
func VxM[DC, DU, DA, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], op Semiring[DU, DA, DC], u *Vector[DU], a *Matrix[DA], desc *Descriptor) error {
	const name = "VxM"
	tran1 := desc.tran1()
	var s opSpec
	wb := vecOp(&s, name, w, mask, accum, desc, writeT)
	U, A := s.input(vecArg(u)), s.input(matArg(a, tran1))
	s.conform(U.nr == A.nr, U, A)
	s.yields(vecShape(A.nc))
	if err := s.check(op.Defined(), "semiring"); err != nil {
		return err
	}
	// The flipped ring drives the same kernels as MxV. It says ⊗ arrives
	// swapped, so the specialized loops run ⟨+, first⟩ as ⟨+, second⟩ and
	// keep min's and max's operand order.
	flipped := op.flipped()
	sp := obs.Begin(name)
	s.span = sp
	return enqueue(s, func() error {
		vm := wb.maskNow()
		var t *sparse.Vec[DC]
		if tran1 {
			sp.NoteLayout("csr")
			t = flipped.DotMxV(a.mdat(), u.vdat(), vm)
		} else {
			t = pushOrPull(a, u.vdat(), flipped, vm, sp)
		}
		sp.AddBytes(t.ApproxBytes())
		wb.write(t, vm)
		return nil
	})
}
