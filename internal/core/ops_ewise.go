package core

import (
	"graphblas/internal/obs"
	"graphblas/internal/sparse"
)

// Element-wise operations of Table II:
//
//	eWiseAdd:  C ⊙= A ⊕ B  (set union of structures)
//	eWiseMult: C ⊙= A ⊗ B  (set intersection of structures)
//
// Following the paper's set-notation definitions, eWiseMult applies ⊗ only
// on the intersection of the stored structures — so it admits the full
// three-domain operator — while eWiseAdd copies unmatched elements of either
// input into the result, which requires all domains to coincide with the
// output domain (the C API achieves the same via implicit casts; Go's
// generics make the requirement explicit).

// EWiseAddM computes C ⊙= A ⊕ B for matrices (GrB_eWiseAdd). add is
// applied where both inputs have entries; elsewhere the single entry is
// copied.
func EWiseAddM[DC, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], add BinaryOp[DC, DC, DC], a, b *Matrix[DC], desc *Descriptor) error {
	tran0, tran1 := desc.tran0(), desc.tran1()
	var s opSpec
	wb := matOp(&s, "EWiseAddM", c, mask, accum, desc, writeT)
	A, B := s.input(matArg(a, tran0)), s.input(matArg(b, tran1))
	s.conform(A == B, A, B)
	s.yields(A)
	if err := s.check(add.Defined(), "operator"); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.UnionCSR(a.oriented(tran0), b.oriented(tran1), add.F, add.opcode()))
		return nil
	})
}

// EWiseAddMonoidM is EWiseAddM with the operator taken from a monoid, the
// form Figure 3 line 42 uses (GrB_eWiseAdd with a GrB_Monoid). A monoid is
// defined exactly when its operator is, so EWiseAddM's test covers it.
func EWiseAddMonoidM[DC, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], m Monoid[DC], a, b *Matrix[DC], desc *Descriptor) error {
	return EWiseAddM(c, mask, accum, m.Op, a, b, desc)
}

// EWiseAddV computes w ⊙= u ⊕ v for vectors.
func EWiseAddV[DC, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], add BinaryOp[DC, DC, DC], u, v *Vector[DC], desc *Descriptor) error {
	const name = "EWiseAddV"
	var s opSpec
	wb := vecOp(&s, name, w, mask, accum, desc, writeT)
	U, V := s.input(vecArg(u)), s.input(vecArg(v))
	s.conform(U == V, U, V)
	s.yields(U)
	if err := s.check(add.Defined(), "operator"); err != nil {
		return err
	}
	sp := obs.Begin(name)
	s.span = sp
	return enqueue(s, func() error {
		uv, vv := u.vdat(), v.vdat()
		noteFull(sp, uv.Full() || vv.Full())
		wb.commit(sparse.VecUnion(uv, vv, add.F, add.opcode()))
		return nil
	})
}

// EWiseAddMonoidV is EWiseAddV with the operator taken from a monoid.
func EWiseAddMonoidV[DC, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], m Monoid[DC], u, v *Vector[DC], desc *Descriptor) error {
	return EWiseAddV(w, mask, accum, m.Op, u, v, desc)
}

// EWiseMultM computes C ⊙= A ⊗ B for matrices (GrB_eWiseMult): mul applies
// on the intersection of the stored structures, with the full three-domain
// generality of the paper's binary operators.
func EWiseMultM[DC, DA, DB, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], mul BinaryOp[DA, DB, DC], a *Matrix[DA], b *Matrix[DB], desc *Descriptor) error {
	tran0, tran1 := desc.tran0(), desc.tran1()
	var s opSpec
	wb := matOp(&s, "EWiseMultM", c, mask, accum, desc, writeT)
	A, B := s.input(matArg(a, tran0)), s.input(matArg(b, tran1))
	s.conform(A == B, A, B)
	s.yields(A)
	if err := s.check(mul.Defined(), "operator"); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.IntersectCSR(a.oriented(tran0), b.oriented(tran1), mul.F, mul.opcode()))
		return nil
	})
}

// EWiseMultV computes w ⊙= u ⊗ v for vectors.
func EWiseMultV[DC, DA, DB, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], mul BinaryOp[DA, DB, DC], u *Vector[DA], v *Vector[DB], desc *Descriptor) error {
	const name = "EWiseMultV"
	var s opSpec
	wb := vecOp(&s, name, w, mask, accum, desc, writeT)
	U, V := s.input(vecArg(u)), s.input(vecArg(v))
	s.conform(U == V, U, V)
	s.yields(U)
	if err := s.check(mul.Defined(), "operator"); err != nil {
		return err
	}
	sp := obs.Begin(name)
	s.span = sp
	return enqueue(s, func() error {
		uv, vv := u.vdat(), v.vdat()
		noteFull(sp, uv.Full() || vv.Full())
		wb.commit(sparse.VecIntersect(uv, vv, mul.F, mul.opcode()))
		return nil
	})
}

// noteFull records on a vector operation's span that its kernel read a full
// operand as the dense array it is (sparse.Vec.Full) instead of merging
// index lists.
func noteFull(sp *obs.Span, full bool) {
	if full {
		sp.NoteLayout("full")
	}
}

// EWiseMultSemiringM is EWiseMultM with the multiplicative operator of a
// semiring, the form Figure 3 lines 70 and 74 use. A semiring missing
// either component multiplies with the undefined operator, which EWiseMultM
// reports at its place in the error precedence.
func EWiseMultSemiringM[DC, DA, DB, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], s Semiring[DA, DB, DC], a *Matrix[DA], b *Matrix[DB], desc *Descriptor) error {
	var mul BinaryOp[DA, DB, DC]
	if s.Defined() {
		mul = s.Mul
	}
	return EWiseMultM(c, mask, accum, mul, a, b, desc)
}
