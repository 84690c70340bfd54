package core

import "graphblas/internal/sparse"

// eWiseUnion (extension, after GxB_eWiseUnion): like eWiseAdd the result
// structure is the union of the inputs, but the operator applies at *every*
// union position, with caller-supplied fill values standing in for absent
// operands (alpha for A, beta for B). This restores the full three-domain
// operator generality that plain eWiseAdd gives up, and expresses
// subtraction-like merges without implicit zeros:
//
//	C = A .- B  over the union:  EWiseUnionM(c, …, Minus, a, 0, b, 0, …)

// EWiseUnionM computes C ⊙= union(A, alpha, B, beta, op) for matrices.
func EWiseUnionM[DC, DA, DB, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], op BinaryOp[DA, DB, DC], a *Matrix[DA], alpha DA, b *Matrix[DB], beta DB, desc *Descriptor) error {
	tran0, tran1 := desc.tran0(), desc.tran1()
	var s opSpec
	wb := matOp(&s, "EWiseUnionM", c, mask, accum, desc, writeT)
	A, B := s.input(matArg(a, tran0)), s.input(matArg(b, tran1))
	s.conform(A == B, A, B)
	s.yields(A)
	if err := s.check(op.Defined(), "operator"); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.UnionFillCSR(a.oriented(tran0), b.oriented(tran1), op.F, alpha, beta))
		return nil
	})
}

// EWiseUnionV computes w ⊙= union(u, alpha, v, beta, op) for vectors.
func EWiseUnionV[DC, DA, DB, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], op BinaryOp[DA, DB, DC], u *Vector[DA], alpha DA, v *Vector[DB], beta DB, desc *Descriptor) error {
	var s opSpec
	wb := vecOp(&s, "EWiseUnionV", w, mask, accum, desc, writeT)
	U, V := s.input(vecArg(u)), s.input(vecArg(v))
	s.conform(U == V, U, V)
	s.yields(U)
	if err := s.check(op.Defined(), "operator"); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.VecUnionFill(u.vdat(), v.vdat(), op.F, alpha, beta))
		return nil
	})
}
