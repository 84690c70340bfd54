package core

// Transpose computes C ⊙= Aᵀ (GrB_transpose, Table II). Combining the
// descriptor's INP0 transpose with this operation yields a masked/
// accumulated copy of A itself — the spec's idiom for "apply a mask to a
// matrix", which this implementation honors without materializing a double
// transpose.
func Transpose[DC, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], a *Matrix[DC], desc *Descriptor) error {
	// Aᵀ of an INP0-transposed A is A itself, so the operand is oriented by
	// the negation of the descriptor bit.
	tran := !desc.tran0()
	var s opSpec
	wb := matOp(&s, "Transpose", c, mask, accum, desc, cloneT)
	s.yields(s.input(matArg(a, tran)))
	if err := s.check(true, ""); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(a.oriented(tran))
		return nil
	})
}
