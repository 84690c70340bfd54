package core

import "graphblas/internal/sparse"

// Extension operations beyond the 2017 surface, marked as such: select
// (structural filtering with an index-aware predicate), Kronecker product,
// and building a diagonal matrix from a vector. They follow the same
// three-step mask/accumulator pipeline as every Table II operation.

// SelectM computes C ⊙= select(pred, A): the entries of A for which
// pred(value, i, j) holds (extension; GrB_select in later revisions). The
// predicate's output domain is bool by construction. A predefined
// positional predicate selects each row's kept run by binary search
// (sparse.SelectBandCSR); any other is called once per entry.
func SelectM[DC, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], pred IndexUnaryOp[DC, bool], a *Matrix[DC], desc *Descriptor) error {
	tran0 := desc.tran0()
	var s opSpec
	wb := matOp(&s, "SelectM", c, mask, accum, desc, writeT)
	s.yields(s.input(matArg(a, tran0)))
	if err := s.check(pred.Defined(), "predicate"); err != nil {
		return err
	}
	band, k := pred.position()
	return enqueue(s, func() error {
		if band != sparse.BandNone {
			wb.commit(sparse.SelectBandCSR(a.oriented(tran0), band, k))
		} else {
			wb.commit(sparse.SelectCSR(a.oriented(tran0), pred.F))
		}
		return nil
	})
}

// SelectV computes w ⊙= select(pred, u) for vectors; the predicate's column
// argument is always 0.
func SelectV[DC, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], pred IndexUnaryOp[DC, bool], u *Vector[DC], desc *Descriptor) error {
	var s opSpec
	wb := vecOp(&s, "SelectV", w, mask, accum, desc, writeT)
	s.yields(s.input(vecArg(u)))
	if err := s.check(pred.Defined(), "predicate"); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.VecSelect(u.vdat(), func(v DC, i int) bool { return pred.F(v, i, 0) }))
		return nil
	})
}

// Kronecker computes C ⊙= A ⊗kron B with the semiring's multiplicative
// operator combining elements (extension; GrB_kronecker in later
// revisions).
func Kronecker[DC, DA, DB, DM any](c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], mul BinaryOp[DA, DB, DC], a *Matrix[DA], b *Matrix[DB], desc *Descriptor) error {
	tran0, tran1 := desc.tran0(), desc.tran1()
	var s opSpec
	wb := matOp(&s, "Kronecker", c, mask, accum, desc, writeT)
	A, B := s.input(matArg(a, tran0)), s.input(matArg(b, tran1))
	s.yields(shape{nr: A.nr * B.nr, nc: A.nc * B.nc})
	if err := s.check(mul.Defined(), "operator"); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.KronCSR(a.oriented(tran0), b.oriented(tran1), mul.F))
		return nil
	})
}

// Diag builds a square matrix whose k-th diagonal holds the stored entries
// of v (extension; GrB_Matrix_diag). The result is (n+|k|)×(n+|k|) where n
// is v's size; it is returned as a fresh matrix.
func Diag[D any](v *Vector[D], k int) (*Matrix[D], error) {
	const name = "Diag"
	if err := checkSource(name, vecArg(v), true, ""); err != nil {
		return nil, err
	}
	n := v.n
	if k < 0 {
		n += -k
	} else {
		n += k
	}
	m := &Matrix[D]{nr: n, nc: n, data: sparse.EmptyCSR[D](n, n)}
	m.initMatrix()
	m.obj.ctx = v.obj.ctx // the result lives in the source's execution context
	err := enqueue(methodSpec(name, &m.obj, &v.obj, false), func() error {
		is := make([]int, len(v.vdat().Idx))
		js := make([]int, len(v.vdat().Idx))
		for p, i := range v.vdat().Idx {
			if k >= 0 {
				is[p], js[p] = i, i+k
			} else {
				is[p], js[p] = i-k, i
			}
		}
		built, ok := sparse.BuildCSR(n, n, is, js, v.vdat().Val, nil)
		if !ok {
			// Defensive: the diagonal coordinates are unique by construction,
			// so a failed build means the kernel saw malformed tuples. That is
			// an internal invariant violation, not a user error — surface it
			// through the executor instead of committing an empty matrix.
			return errf(PanicInfo, name, "diagonal tuple build failed for %d entries", len(is))
		}
		m.setData(built)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}
