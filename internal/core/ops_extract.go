package core

import "graphblas/internal/sparse"

// extract (Table II): C ⊙= A(i, j) and w ⊙= u(i). A nil index slice plays
// the role of GrB_ALL (Table V): all indices in order. Duplicate indices
// are permitted — extract replicates rows/columns.

// All is the GrB_ALL literal: passing it (or any nil slice) as an index list
// selects all of the object's indices in order.
var All []int

// ExtractSubmatrix computes C ⊙= A(rows, cols) (GrB_extract on matrices;
// Figure 3 line 33 uses it with a transposed input and GrB_ALL rows). The
// descriptor's INP0 transpose applies to A before indexing.
func ExtractSubmatrix[DC, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], a *Matrix[DC], rows, cols []int, desc *Descriptor) error {
	tran0 := desc.tran0()
	var s opSpec
	wb := matOp(&s, "ExtractSubmatrix", c, mask, accum, desc, writeT)
	A := s.input(matArg(a, tran0))
	rIdx, cIdx := s.indices("row", rows, A.nr, false), s.indices("column", cols, A.nc, false)
	s.yields(shape{nr: len(rIdx), nc: len(cIdx)})
	if err := s.check(true, ""); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.ExtractCSR(a.oriented(tran0), rIdx, cIdx))
		return nil
	})
}

// ExtractSubvector computes w ⊙= u(indices) (GrB_extract on vectors).
func ExtractSubvector[DC, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], u *Vector[DC], indices []int, desc *Descriptor) error {
	var s opSpec
	wb := vecOp(&s, "ExtractSubvector", w, mask, accum, desc, writeT)
	U := s.input(vecArg(u))
	idx := s.indices("element", indices, U.nr, false)
	s.yields(vecShape(len(idx)))
	if err := s.check(true, ""); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.ExtractVec(u.vdat(), idx))
		return nil
	})
}

// ExtractColVector computes w ⊙= A(rows, j): column j of A restricted to a
// row index list (GrB_Col_extract). With the descriptor's INP0 transpose it
// extracts row j instead.
func ExtractColVector[DC, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], a *Matrix[DC], rows []int, j int, desc *Descriptor) error {
	tran0 := desc.tran0()
	var s opSpec
	wb := vecOp(&s, "ExtractColVector", w, mask, accum, desc, writeT)
	A := s.input(matArg(a, tran0))
	s.position("column", j, A.nc)
	rIdx := s.indices("row", rows, A.nr, false)
	s.yields(vecShape(len(rIdx)))
	if err := s.check(true, ""); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.ExtractColCSR(a.oriented(tran0), rIdx, j))
		return nil
	})
}
