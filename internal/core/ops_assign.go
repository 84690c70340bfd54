package core

import (
	"graphblas/internal/obs"
	"graphblas/internal/sparse"
)

// assign (Table II): C(i, j) ⊙= A, w(i) ⊙= u, row/column variants, and the
// scalar-fill variants Figure 3 uses on lines 61 and 77. Following the
// GrB_assign semantics, the mask and the GrB_REPLACE setting span the whole
// output object for the matrix/vector variants; for the row/column variants
// their effect is confined to the assigned row or column. Assign target
// index lists must be duplicate-free.
//
// Every variant builds Z — C with the region accumulated — from C's prior
// content and hands it to commit for the mask merge alone (mergeZ); what
// that means for the overwrite flag is opSpec.assigns.

// AssignVector computes w(indices) ⊙= u (GrB_assign, vector variant).
func AssignVector[DC, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], u *Vector[DC], indices []int, desc *Descriptor) error {
	const name = "AssignVector"
	var s opSpec
	wb := vecOp(&s, name, w, mask, accum, desc, mergeZ)
	U := s.input(vecArg(u))
	idx, region := s.targets(indices, s.outShape.nr), s.outShape.nr
	if idx != nil {
		region = len(idx)
	}
	s.conform(U.nr == region, U, vecShape(region))
	s.assigns(indices == nil)
	if err := s.check(true, ""); err != nil {
		return err
	}
	// The span notes "full" when the kernel ran an array path: over the
	// identity without an accumulator Z is a copy of u, with one it is the
	// union of w and u, an array loop when either is full (kernels_vec.go).
	//
	// Over the identity without an accumulator under a mask, Z is u itself:
	// the mask merge builds the result from it and leaves it to u, so u is
	// not copied first.
	sp := obs.Begin(name)
	s.span = sp
	zIsU := idx == nil && wb.accumF == nil && mask != nil
	return enqueue(s, func() error {
		c, uv := w.vdat(), u.vdat()
		noteFull(sp, idx == nil && (wb.accumF == nil || c.Full() || uv.Full()))
		if zIsU {
			wb.mergeInput(uv)
			return nil
		}
		wb.commit(sparse.AssignExpandVec(c, uv, idx, wb.accumF, wb.accumOp))
		return nil
	})
}

// AssignVectorScalar computes w(indices) ⊙= x: the scalar fill Figure 3
// line 77 uses to initialize delta with -nsver. Over the identity the kernel
// fills an array, which the span notes as "full".
//
// Over the identity without an accumulator under a mask that is not
// complemented — BFS's levels⟨frontier⟩ = depth — the mask merge takes Z
// only at the mask's true positions, so Z is x there alone (sparse.FillVec)
// instead of a full array the merge would mostly drop.
func AssignVectorScalar[DC, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], x DC, indices []int, desc *Descriptor) error {
	const name = "AssignVectorScalar"
	var s opSpec
	wb := vecOp(&s, name, w, mask, accum, desc, mergeZ)
	idx := s.targets(indices, s.outShape.nr)
	s.assigns(indices == nil)
	if err := s.check(true, ""); err != nil {
		return err
	}
	sp := obs.Begin(name)
	s.span = sp
	atMask := idx == nil && wb.accumF == nil && mask != nil && !wb.scmp
	return enqueue(s, func() error {
		if atMask {
			vm := wb.maskNow()
			wb.write(sparse.FillVec(vm.N, x, vm.Idx), vm)
			releaseVecMask(vm)
			return nil
		}
		noteFull(sp, idx == nil)
		wb.commit(sparse.AssignScalarExpandVec(w.vdat(), x, idx, wb.accumF, wb.accumOp))
		return nil
	})
}

// AssignMatrix computes C(rows, cols) ⊙= A (GrB_assign, matrix variant).
func AssignMatrix[DC, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], a *Matrix[DC], rows, cols []int, desc *Descriptor) error {
	var s opSpec
	wb := matOp(&s, "AssignMatrix", c, mask, accum, desc, mergeZ)
	A := s.input(matArg(a, false))
	rIdx, cIdx := s.indices("row", rows, s.outShape.nr, true), s.indices("column", cols, s.outShape.nc, true)
	region := shape{nr: len(rIdx), nc: len(cIdx)}
	s.conform(A == region, A, region)
	s.assigns(rows == nil && cols == nil)
	if err := s.check(true, ""); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.AssignExpandCSR(c.mdat(), a.mdat(), rIdx, cIdx, wb.accumF))
		return nil
	})
}

// AssignMatrixScalar computes C(rows, cols) ⊙= x: the scalar fill Figure 3
// line 61 uses to initialize bcu with 1.0 over GrB_ALL × GrB_ALL.
func AssignMatrixScalar[DC, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], x DC, rows, cols []int, desc *Descriptor) error {
	var s opSpec
	wb := matOp(&s, "AssignMatrixScalar", c, mask, accum, desc, mergeZ)
	rIdx, cIdx := s.indices("row", rows, s.outShape.nr, true), s.indices("column", cols, s.outShape.nc, true)
	s.assigns(rows == nil && cols == nil)
	if err := s.check(true, ""); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.AssignScalarExpandCSR(c.mdat(), x, rIdx, cIdx, wb.accumF))
		return nil
	})
}

// AssignRow computes C(i, cols) ⊙= u (GrB_Row_assign). The mask is a
// vector over the column extent and, with GrB_REPLACE, affects only row i —
// the one output/mask pairing the typed commit steps do not cover, so the
// row and column assigns merge their line themselves.
func AssignRow[DC, DM any](c *Matrix[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], u *Vector[DC], i int, cols []int, desc *Descriptor) error {
	var s opSpec
	out := matArg(c, false)
	s.begin("AssignRow", out, vecArg(mask), vecShape(out.nc), accum.Defined(), desc)
	U := s.input(vecArg(u))
	s.position("row", i, s.outShape.nr)
	cIdx := s.indices("column", cols, s.outShape.nc, true)
	s.conform(U.nr == len(cIdx), U, vecShape(len(cIdx)))
	s.keeps = true
	if err := s.check(true, ""); err != nil {
		return err
	}
	scmp, replace := desc.scmp(), desc.replace()
	return enqueue(s, func() error {
		vm := resolveVecMask(mask, scmp)
		c.setData(sparse.AssignRowCSR(c.mdat(), u.vdat(), i, cIdx, accum.F, vm, replace))
		releaseVecMask(vm)
		return nil
	})
}

// AssignCol computes C(rows, j) ⊙= u (GrB_Col_assign). The mask is a
// vector over the row extent and, with GrB_REPLACE, affects only column j.
func AssignCol[DC, DM any](c *Matrix[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], u *Vector[DC], rows []int, j int, desc *Descriptor) error {
	var s opSpec
	out := matArg(c, false)
	s.begin("AssignCol", out, vecArg(mask), vecShape(out.nr), accum.Defined(), desc)
	U := s.input(vecArg(u))
	s.position("column", j, s.outShape.nc)
	rIdx := s.indices("row", rows, s.outShape.nr, true)
	s.conform(U.nr == len(rIdx), U, vecShape(len(rIdx)))
	s.keeps = true
	if err := s.check(true, ""); err != nil {
		return err
	}
	scmp, replace := desc.scmp(), desc.replace()
	return enqueue(s, func() error {
		vm := resolveVecMask(mask, scmp)
		c.setData(sparse.AssignColCSR(c.mdat(), u.vdat(), rIdx, j, accum.F, vm, replace))
		releaseVecMask(vm)
		return nil
	})
}
