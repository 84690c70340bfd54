package core

import "graphblas/internal/sparse"

// apply (Table II): C ⊙= F_u(A) and w ⊙= F_u(u) — a unary function mapped
// over the stored values, preserving structure. The C API uses apply both
// for computation (GrB_MINV_FP32 in Figure 3 line 57) and for domain casts
// (GrB_IDENTITY_BOOL in Figure 3 line 41); with generics a cast is just a
// unary operator with distinct input and output domains.

// ApplyM computes C ⊙= f(A) for matrices (GrB_Matrix_apply).
func ApplyM[DC, DA, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], f UnaryOp[DA, DC], a *Matrix[DA], desc *Descriptor) error {
	tran0 := desc.tran0()
	var s opSpec
	wb := matOp(&s, "ApplyM", c, mask, accum, desc, writeT)
	s.yields(s.input(matArg(a, tran0)))
	if err := s.check(f.Defined(), "unary operator"); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.ApplyCSR(a.oriented(tran0), f.F))
		return nil
	})
}

// ApplyV computes w ⊙= f(u) for vectors (GrB_Vector_apply).
func ApplyV[DC, DA, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], f UnaryOp[DA, DC], u *Vector[DA], desc *Descriptor) error {
	var s opSpec
	wb := vecOp(&s, "ApplyV", w, mask, accum, desc, writeT)
	s.yields(s.input(vecArg(u)))
	if err := s.check(f.Defined(), "unary operator"); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.VecApply(u.vdat(), f.F))
		return nil
	})
}

// ApplyBindFirstM computes C ⊙= f(x, A): the binary operator f applied with
// a bound first scalar argument (a later-revision extension used to scale a
// matrix by a constant). An undefined f binds to the undefined unary
// operator, which ApplyM reports at its place in the error precedence.
func ApplyBindFirstM[DC, DX, DA, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], f BinaryOp[DX, DA, DC], x DX, a *Matrix[DA], desc *Descriptor) error {
	var bound UnaryOp[DA, DC]
	if f.Defined() {
		bound = UnaryOp[DA, DC]{Name: f.Name + "_bind1st", F: func(v DA) DC { return f.F(x, v) }}
	}
	return ApplyM(c, mask, accum, bound, a, desc)
}

// ApplyBindSecondM computes C ⊙= f(A, y): the binary operator f applied
// with a bound second scalar argument.
func ApplyBindSecondM[DC, DA, DY, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], f BinaryOp[DA, DY, DC], a *Matrix[DA], y DY, desc *Descriptor) error {
	var bound UnaryOp[DA, DC]
	if f.Defined() {
		bound = UnaryOp[DA, DC]{Name: f.Name + "_bind2nd", F: func(v DA) DC { return f.F(v, y) }}
	}
	return ApplyM(c, mask, accum, bound, a, desc)
}

// ApplyBindFirstV computes w ⊙= f(x, u) for vectors.
func ApplyBindFirstV[DC, DX, DU, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], f BinaryOp[DX, DU, DC], x DX, u *Vector[DU], desc *Descriptor) error {
	var bound UnaryOp[DU, DC]
	if f.Defined() {
		bound = UnaryOp[DU, DC]{Name: f.Name + "_bind1st", F: func(v DU) DC { return f.F(x, v) }}
	}
	return ApplyV(w, mask, accum, bound, u, desc)
}

// ApplyBindSecondV computes w ⊙= f(u, y) for vectors.
func ApplyBindSecondV[DC, DU, DY, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], f BinaryOp[DU, DY, DC], u *Vector[DU], y DY, desc *Descriptor) error {
	var bound UnaryOp[DU, DC]
	if f.Defined() {
		bound = UnaryOp[DU, DC]{Name: f.Name + "_bind2nd", F: func(v DU) DC { return f.F(v, y) }}
	}
	return ApplyV(w, mask, accum, bound, u, desc)
}

// ApplyIndexOpM computes C ⊙= f(A_ij, i, j): the index-aware apply
// extension. Structure is preserved; the operator sees each entry's
// coordinates.
func ApplyIndexOpM[DC, DA, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], f IndexUnaryOp[DA, DC], a *Matrix[DA], desc *Descriptor) error {
	tran0 := desc.tran0()
	var s opSpec
	wb := matOp(&s, "ApplyIndexOpM", c, mask, accum, desc, writeT)
	s.yields(s.input(matArg(a, tran0)))
	if err := s.check(f.Defined(), "index operator"); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.ApplyIndexCSR(a.oriented(tran0), f.F))
		return nil
	})
}

// ApplyIndexOpV computes w ⊙= f(u_i, i, 0) for vectors.
func ApplyIndexOpV[DC, DU, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], f IndexUnaryOp[DU, DC], u *Vector[DU], desc *Descriptor) error {
	var s opSpec
	wb := vecOp(&s, "ApplyIndexOpV", w, mask, accum, desc, writeT)
	s.yields(s.input(vecArg(u)))
	if err := s.check(f.Defined(), "index operator"); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.VecApplyIndex(u.vdat(), func(v DU, i int) DC { return f.F(v, i, 0) }))
		return nil
	})
}
