package core

import (
	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/sparse"
)

// reduce (Table II): w ⊙= ⊕_j A(:,j) — fold each matrix row into a vector
// element with a monoid — plus the scalar reductions over a whole matrix or
// vector. Scalar outputs are non-opaque, so the scalar forms force
// completion per the execution model; the vector form may defer.

// runScalarReduce executes a scalar-reduce kernel body on the caller's
// goroutine with the same protections the executor gives queued kernels: an
// executor-level fault draw keyed by the method name, and panic recovery
// converting an injected kernel fault or a panicking user monoid into the
// matching execution error. The scalar forms used to call the kernel bare
// (`acc, _ :=`), so a fault raised inside it crashed the program or — worse —
// was swallowed, handing the caller a silently wrong scalar; now it surfaces
// as the method's error and lands in the sequence error log.
func runScalarReduce[D any](c *context, name string, f func() D) (out D, err error) {
	sp := obs.Begin(name)
	sp.MarkScheduled()
	defer func() {
		if r := recover(); r != nil {
			err = recoveredError(name, r)
		}
		if err != nil {
			var zero D
			out = zero
			recordScalarError(c, name, err)
			sp.Finish(obs.OutcomeError, err)
		} else {
			sp.Finish(obs.OutcomeOK, nil)
		}
		obs.Emit(sp)
	}()
	if fl := faults.Check(name); fl != nil {
		return out, faultError(name, fl)
	}
	sp.MarkKernel()
	return f(), nil
}

// recordScalarError folds a scalar-read failure into the sequence error
// state: it takes the next program-order position and appends to the log,
// setting the GrB_error string. A sequence is opened only because an error
// actually occurred — the success path touches neither the log nor the
// error string, so passing sequences observe no change.
func recordScalarError(c *context, name string, err error) {
	c.mu.Lock()
	pos := c.beginOpLocked()
	c.errLog = append(c.errLog, SequenceError{Pos: pos, Op: name, Err: err})
	c.lastMsg = err.Error()
	c.mu.Unlock()
}

// ReduceMatrixToVector computes w ⊙= ⊕_j A(i,j) (GrB_reduce, the Figure 3
// line 78 form). Rows with no stored elements produce no output entry. Use
// the descriptor's INP0 transpose to reduce columns instead.
func ReduceMatrixToVector[DC, DM any](w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], m Monoid[DC], a *Matrix[DC], desc *Descriptor) error {
	tran0 := desc.tran0()
	var s opSpec
	wb := vecOp(&s, "ReduceMatrixToVector", w, mask, accum, desc, writeT)
	s.yields(vecShape(s.input(matArg(a, tran0)).nr))
	if err := s.check(m.Defined(), "monoid"); err != nil {
		return err
	}
	return enqueue(s, func() error {
		wb.commit(sparse.ReduceRowsCSR(a.oriented(tran0), m.Op.F, m.Op.opcode(), m.Terminal))
		return nil
	})
}

// ReduceMatrixToScalar folds every stored element of A with the monoid,
// returning the monoid identity for an empty matrix. The scalar result is
// non-opaque, so this forces completion of the pending sequence. accum, when
// defined, combines the fold with the val argument (the C API's
// GrB_Matrix_reduce with a scalar accumulator); val also seeds the result
// for an empty matrix.
func ReduceMatrixToScalar[D any](val D, accum BinaryOp[D, D, D], m Monoid[D], a *Matrix[D]) (D, error) {
	const name = "ReduceMatrixToScalar"
	var zero D
	if err := checkSource(name, matArg(a, false), m.Defined(), "monoid"); err != nil {
		return zero, err
	}
	if err := a.obj.engine().force(name); err != nil {
		return zero, err
	}
	if err := invalidMark(&a.obj, name); err != nil {
		return zero, err
	}
	acc, err := runScalarReduce(a.obj.engine(), name, func() D {
		//grblint:ignore swallowederr stored=false means no entries were folded; the identity the kernel returns is exactly the GraphBLAS empty-reduction value
		r, _ := sparse.ReduceAllCSR(a.mdat(), m.Op.F, m.Op.opcode(), m.Identity, m.Terminal)
		return r
	})
	if err != nil {
		return zero, err
	}
	if accum.Defined() {
		return accum.F(val, acc), nil
	}
	return acc, nil
}

// ReduceVectorToScalar folds every stored element of u with the monoid;
// semantics mirror ReduceMatrixToScalar.
func ReduceVectorToScalar[D any](val D, accum BinaryOp[D, D, D], m Monoid[D], u *Vector[D]) (D, error) {
	const name = "ReduceVectorToScalar"
	var zero D
	if err := checkSource(name, vecArg(u), m.Defined(), "monoid"); err != nil {
		return zero, err
	}
	if err := u.obj.engine().force(name); err != nil {
		return zero, err
	}
	if err := invalidMark(&u.obj, name); err != nil {
		return zero, err
	}
	acc, err := runScalarReduce(u.obj.engine(), name, func() D {
		//grblint:ignore swallowederr stored=false means no entries were folded; the identity the kernel returns is exactly the GraphBLAS empty-reduction value
		r, _ := sparse.VecReduce(u.vdat(), m.Op.F, m.Op.opcode(), m.Identity, m.Terminal)
		return r
	})
	if err != nil {
		return zero, err
	}
	if accum.Defined() {
		return accum.F(val, acc), nil
	}
	return acc, nil
}
