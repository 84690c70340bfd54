package sparse

import (
	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/pool"
)

// MatMask is a pre-resolved two-dimensional mask in CSR-pattern form (no
// values; masks have structure only once truthiness is resolved). The Eff
// arrays list positions whose stored mask value is true; the Str arrays list
// every stored position — the basis of the structural complement of Section
// III-C. The two may alias when every stored value is true.
type MatMask struct {
	NCols          int
	EffPtr, EffIdx []int
	StrPtr, StrIdx []int
	Comp           bool
}

// EffRow returns the effective-true column indices of row i.
func (m *MatMask) EffRow(i int) []int { return m.EffIdx[m.EffPtr[i]:m.EffPtr[i+1]] }

// StrRow returns the stored-structure column indices of row i.
func (m *MatMask) StrRow(i int) []int { return m.StrIdx[m.StrPtr[i]:m.StrPtr[i+1]] }

// rowMask builds the per-row VecMask view for row i. Cheap: slices alias the
// mask storage.
func (m *MatMask) rowMask(i int) VecMask {
	return VecMask{N: m.NCols, Idx: m.EffRow(i), Structure: m.StrRow(i), Comp: m.Comp}
}

// UnionCSR computes the eWiseAdd merge of a and b row-parallel.
func UnionCSR[D any](a, b *CSR[D], add func(D, D) D) *CSR[D] {
	return EmitCSR(a.NRows, a.NCols, a.Ptr, func(out *Rows[D], lo, hi int) {
		out.Reserve(a.Ptr[hi] - a.Ptr[lo] + b.Ptr[hi] - b.Ptr[lo])
		for i := lo; i < hi; i++ {
			aIdx, aVal := a.Row(i)
			bIdx, bVal := b.Row(i)
			out.Idx, out.Val = unionRow(aIdx, aVal, bIdx, bVal, add, out.Idx, out.Val)
			out.End(i)
		}
	})
}

// IntersectCSR computes the eWiseMult merge of a and b row-parallel.
func IntersectCSR[DA, DB, DC any](a *CSR[DA], b *CSR[DB], mul func(DA, DB) DC) *CSR[DC] {
	return EmitCSR(a.NRows, a.NCols, a.Ptr, func(out *Rows[DC], lo, hi int) {
		out.Reserve(min(a.Ptr[hi]-a.Ptr[lo], b.Ptr[hi]-b.Ptr[lo]))
		for i := lo; i < hi; i++ {
			aIdx, aVal := a.Row(i)
			bIdx, bVal := b.Row(i)
			out.Idx, out.Val = intersectRow(aIdx, aVal, bIdx, bVal, mul, out.Idx, out.Val)
			out.End(i)
		}
	})
}

// ApplyCSR maps f over the stored values of a, preserving structure.
func ApplyCSR[DA, DC any](a *CSR[DA], f func(DA) DC) *CSR[DC] {
	out := &CSR[DC]{NRows: a.NRows, NCols: a.NCols}
	out.Ptr = append([]int(nil), a.Ptr...)
	out.ColIdx = append([]int(nil), a.ColIdx...)
	out.Val = make([]DC, len(a.Val))
	parallel.For(len(a.Val), 4096, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			out.Val[k] = f(a.Val[k])
		}
	})
	return out
}

// ApplyIndexCSR maps f(value, row, col) over the stored entries of a.
func ApplyIndexCSR[DA, DC any](a *CSR[DA], f func(DA, int, int) DC) *CSR[DC] {
	out := &CSR[DC]{NRows: a.NRows, NCols: a.NCols}
	out.Ptr = append([]int(nil), a.Ptr...)
	out.ColIdx = append([]int(nil), a.ColIdx...)
	out.Val = make([]DC, len(a.Val))
	parallel.ForWeighted(a.NRows, a.Ptr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
				out.Val[p] = f(a.Val[p], i, a.ColIdx[p])
			}
		}
	})
	return out
}

// SelectCSR keeps the entries of a for which pred(value, row, col) holds.
// Two row-parallel passes and no per-row storage: the first evaluates pred
// once per entry into keep flags and counts each row's survivors into the
// result's Ptr, the second copies the kept entries into the exactly sized
// ColIdx/Val. The flags are the one byte per entry it allocates besides the
// result; they are not pooled, because a select is often a one-off (a
// triangle count's tril) and a shelved nnz-long buffer would stay resident
// after it — 2.2 MB of peak RSS on shard2-read, measured.
//
//grblint:hotpath
func SelectCSR[D any](a *CSR[D], pred func(D, int, int) bool) *CSR[D] {
	out := NewCSR[D](a.NRows, a.NCols)
	keep := make([]bool, a.NNZ())
	parallel.ForWeighted(a.NRows, a.Ptr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			kept := 0
			for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
				if pred(a.Val[p], i, a.ColIdx[p]) {
					keep[p] = true
					kept++
				}
			}
			out.Ptr[i+1] = kept
		}
	})
	for i := 0; i < a.NRows; i++ {
		out.Ptr[i+1] += out.Ptr[i]
	}
	out.ColIdx = make([]int, out.NNZ())
	out.Val = make([]D, out.NNZ())
	parallel.ForWeighted(a.NRows, a.Ptr, func(lo, hi int) {
		w := out.Ptr[lo]
		for p := a.Ptr[lo]; p < a.Ptr[hi]; p++ {
			if keep[p] {
				out.ColIdx[w], out.Val[w] = a.ColIdx[p], a.Val[p]
				w++
			}
		}
	})
	return out
}

// ReduceRowsCSR folds each row of a with the monoid operation, producing a
// sparse vector with entries only for nonempty rows (Table II "reduce").
// A non-nil term predicate stops each row's fold at the annihilator.
func ReduceRowsCSR[D any](a *CSR[D], add func(D, D) D, term func(D) bool) *Vec[D] {
	faults.Step("sparse.kernel.reduce.rows")
	done := obs.KernelStart("reduce.rows")
	out := &Vec[D]{N: a.NRows}
	for i := 0; i < a.NRows; i++ {
		lo, hi := a.Ptr[i], a.Ptr[i+1]
		if lo == hi {
			continue
		}
		acc := a.Val[lo]
		for p := lo + 1; p < hi; p++ {
			if term != nil && term(acc) {
				break
			}
			acc = add(acc, a.Val[p])
		}
		out.Idx = append(out.Idx, i)
		out.Val = append(out.Val, acc)
	}
	done(out.NVals())
	return out
}

// ReduceAllCSR folds every stored value of a with the monoid operation
// starting from identity; stored reports whether a had any entries. A
// non-nil term predicate stops the fold at the annihilator.
func ReduceAllCSR[D any](a *CSR[D], add func(D, D) D, identity D, term func(D) bool) (D, bool) {
	faults.Step("sparse.kernel.reduce.all")
	done := obs.KernelStart("reduce.all")
	acc := identity
	for _, v := range a.Val[:a.NNZ()] {
		acc = add(acc, v)
		if term != nil && term(acc) {
			break
		}
	}
	done(a.NNZ())
	return acc, a.NNZ() > 0
}

// MaskMergeCSR applies the final mask/replace write stage row-parallel. A
// nil mask admits every position and returns z itself (ownership transfer,
// as in MaskMergeVec); callers holding a shared z must clone first. The rows
// are split by the larger operand's entries.
func MaskMergeCSR[D any](c, z *CSR[D], mask *MatMask, replace bool) *CSR[D] {
	if mask == nil {
		return z
	}
	cum := z.Ptr
	if c.NNZ() > z.NNZ() {
		cum = c.Ptr
	}
	return EmitCSR(c.NRows, c.NCols, cum, func(out *Rows[D], lo, hi int) {
		out.Reserve(c.Ptr[hi] - c.Ptr[lo] + z.Ptr[hi] - z.Ptr[lo])
		for i := lo; i < hi; i++ {
			cIdx, cVal := c.Row(i)
			zIdx, zVal := z.Row(i)
			rm := mask.rowMask(i)
			out.Idx, out.Val = maskMergeRow(cIdx, cVal, zIdx, zVal, &rm, replace, out.Idx, out.Val)
			out.End(i)
		}
	})
}

// WriteCSR runs the full accumulate-then-mask pipeline for matrices.
func WriteCSR[D any](c, t *CSR[D], mask *MatMask, accum func(D, D) D, replace bool) *CSR[D] {
	z := t
	if accum != nil {
		z = UnionCSR(c, t, accum)
	}
	return MaskMergeCSR(c, z, mask, replace)
}

// ExtractCSR computes out(r, q) = a(rows[r], cols[q]). Duplicate indices are
// permitted in both lists (Table II "extract"); indices must be
// pre-validated by the caller. Each output row's entries are counted first,
// which is what the rows are split by and each chunk reserves.
func ExtractCSR[D any](a *CSR[D], rows, cols []int) *CSR[D] {
	// Column j of a feeds the output columns targets[tptr[j]:tptr[j+1]], in
	// increasing order.
	tptr := pool.GetInts(a.NCols + 1)
	defer pool.PutInts(tptr)
	targets := pool.GetInts(len(cols))
	defer pool.PutInts(targets)
	for _, j := range cols {
		tptr[j+1]++
	}
	for j := 0; j < a.NCols; j++ {
		tptr[j+1] += tptr[j]
	}
	for q, j := range cols {
		targets[tptr[j]] = q
		tptr[j]++
	}
	copy(tptr[1:], tptr[:a.NCols])
	tptr[0] = 0
	cum := pool.GetInts(len(rows) + 1)
	defer pool.PutInts(cum)
	for r, i := range rows {
		n := 0
		for _, j := range a.ColIdx[a.Ptr[i]:a.Ptr[i+1]] {
			n += tptr[j+1] - tptr[j]
		}
		cum[r+1] = cum[r] + n
	}
	return EmitCSR(len(rows), len(cols), cum, func(out *Rows[D], lo, hi int) {
		out.Reserve(cum[hi] - cum[lo])
		for r := lo; r < hi; r++ {
			start := len(out.Idx)
			for p := a.Ptr[rows[r]]; p < a.Ptr[rows[r]+1]; p++ {
				j := a.ColIdx[p]
				for _, q := range targets[tptr[j]:tptr[j+1]] {
					out.Idx = append(out.Idx, q)
					out.Val = append(out.Val, a.Val[p])
				}
			}
			sortRow(out.Idx[start:], out.Val[start:])
			out.End(r)
		}
	})
}

// ExtractColCSR computes w(k) = a(rows[k], j): one column of a restricted to
// a row index list (the GrB_Col_extract form used in Figure 3).
func ExtractColCSR[D any](a *CSR[D], rows []int, j int) *Vec[D] {
	out := &Vec[D]{N: len(rows)}
	for k, i := range rows {
		if v, ok := a.Get(i, j); ok {
			out.Idx = append(out.Idx, k)
			out.Val = append(out.Val, v)
		}
	}
	return out
}

// sortRow sorts a row's (idx, val) pairs by idx. Extract can produce
// out-of-order duplicates; stable order of equal indices is irrelevant
// because duplicate output columns cannot collide (each q appears once).
func sortRow[D any](idx []int, val []D) {
	for i := 1; i < len(idx); i++ {
		xi, xv := idx[i], val[i]
		j := i - 1
		for j >= 0 && idx[j] > xi {
			idx[j+1], val[j+1] = idx[j], val[j]
			j--
		}
		idx[j+1], val[j+1] = xi, xv
	}
}

// assignRows lays out an assign into the rows of c whose every assigned row
// receives up to width entries: slot[i] is 1 + row i's position in rows, 0
// for a row not assigned, and cum bounds the result's entries row by row —
// c's, plus width in every assigned row. The rows are split by cum and each
// chunk reserves by it. Both come from the pool.
func assignRows[D any](c *CSR[D], rows []int, width int) (slot, cum []int) {
	slot = pool.GetInts(c.NRows)
	for k, i := range rows {
		slot[i] = k + 1
	}
	cum = pool.GetInts(c.NRows + 1)
	for i := 0; i < c.NRows; i++ {
		cum[i+1] = cum[i] + c.Ptr[i+1] - c.Ptr[i]
		if slot[i] > 0 {
			cum[i+1] += width
		}
	}
	return slot, cum
}

// AssignExpandCSR computes the Z content for c(rows, cols) = a per the
// assign semantics: within the assigned region entries are replaced by a's
// mapped entries (deleted where a has none, kept where accum is non-nil);
// outside it c is untouched. rows and cols must each be duplicate-free
// (validated by the caller).
func AssignExpandCSR[D any](c, a *CSR[D], rows, cols []int, accum func(D, D) D) *CSR[D] {
	slot, cum := assignRows(c, rows, len(cols))
	defer pool.PutInts(slot)
	defer pool.PutInts(cum)
	return EmitCSR(c.NRows, c.NCols, cum, func(out *Rows[D], lo, hi int) {
		out.Reserve(cum[hi] - cum[lo])
		es := make([]assignEntry[D], len(cols))
		for i := lo; i < hi; i++ {
			if slot[i] == 0 {
				out.Copy(c, i, i+1)
				continue
			}
			arow := a.RowVec(slot[i] - 1)
			pa := 0
			for l, j := range cols {
				es[l] = assignEntry[D]{target: j}
				for pa < len(arow.Idx) && arow.Idx[pa] < l {
					pa++
				}
				if pa < len(arow.Idx) && arow.Idx[pa] == l {
					es[l].val, es[l].has = arow.Val[pa], true
				}
			}
			sortAssign(es)
			cIdx, cVal := c.Row(i)
			out.Idx, out.Val = mergeAssignInto(cIdx, cVal, es, accum, out.Idx, out.Val)
			out.End(i)
		}
	})
}

// AssignScalarExpandCSR computes the Z content for c(rows, cols) = x: every
// assigned position receives x (combined with accum where an entry exists).
func AssignScalarExpandCSR[D any](c *CSR[D], x D, rows, cols []int, accum func(D, D) D) *CSR[D] {
	es := make([]assignEntry[D], len(cols))
	for l, j := range cols {
		es[l] = assignEntry[D]{target: j, val: x, has: true}
	}
	sortAssign(es)
	slot, cum := assignRows(c, rows, len(cols))
	defer pool.PutInts(slot)
	defer pool.PutInts(cum)
	return EmitCSR(c.NRows, c.NCols, cum, func(out *Rows[D], lo, hi int) {
		out.Reserve(cum[hi] - cum[lo])
		for i := lo; i < hi; i++ {
			if slot[i] == 0 {
				out.Copy(c, i, i+1)
				continue
			}
			cIdx, cVal := c.Row(i)
			out.Idx, out.Val = mergeAssignInto(cIdx, cVal, es, accum, out.Idx, out.Val)
			out.End(i)
		}
	})
}

// AssignRowCSR computes c(i, cols) ⊙= u (GrB_Row_assign): row i becomes
// c's row with the assigned columns replaced by u's entries (deleted where u
// has none, kept where accum is non-nil), written under the column-extent
// mask and replace as MaskMergeVec writes a vector; every other row is c's.
func AssignRowCSR[D any](c *CSR[D], u *Vec[D], i int, cols []int, accum func(D, D) D, mask *VecMask, replace bool) *CSR[D] {
	es := make([]assignEntry[D], len(cols))
	pu := 0
	for l, j := range cols {
		es[l].target = j
		for pu < len(u.Idx) && u.Idx[pu] < l {
			pu++
		}
		if pu < len(u.Idx) && u.Idx[pu] == l {
			es[l].val = u.Val[pu]
			es[l].has = true
		}
	}
	sortAssign(es)
	cIdx, cVal := c.Row(i)
	zIdx, zVal := mergeAssign(cIdx, cVal, es, accum)
	return EmitCSR(c.NRows, c.NCols, c.Ptr, func(out *Rows[D], lo, hi int) {
		out.Reserve(c.Ptr[hi] - c.Ptr[lo] + len(zIdx))
		if i < lo || i >= hi {
			out.Copy(c, lo, hi)
			return
		}
		out.Copy(c, lo, i)
		out.Idx, out.Val = maskMergeRow(cIdx, cVal, zIdx, zVal, mask, replace, out.Idx, out.Val)
		out.End(i)
		out.Copy(c, i+1, hi)
	})
}

// AssignColCSR computes c(rows, j) ⊙= u (GrB_Col_assign). The mask has the
// row extent: in an allowed assigned row, column j takes u's entry
// (accumulated into c's under accum) and loses c's where u has none and
// accum is nil; in a disallowed row replace deletes column j's entry; every
// other row is c's.
func AssignColCSR[D any](c *CSR[D], u *Vec[D], rows []int, j int, accum func(D, D) D, mask *VecMask, replace bool) *CSR[D] {
	slot, cum := assignRows(c, rows, 1)
	defer pool.PutInts(slot)
	defer pool.PutInts(cum)
	return EmitCSR(c.NRows, c.NCols, cum, func(out *Rows[D], lo, hi int) {
		out.Reserve(cum[hi] - cum[lo])
		cur := MaskCursor{Mask: mask}
		var es [1]assignEntry[D]
		for i := lo; i < hi; i++ {
			acc := accum
			switch allowed := cur.Allows(i); {
			case allowed && slot[i] > 0:
				uv, has := u.Get(slot[i] - 1)
				es[0] = assignEntry[D]{target: j, val: uv, has: has}
			case !allowed && replace:
				es[0], acc = assignEntry[D]{target: j}, nil
			default:
				out.Copy(c, i, i+1)
				continue
			}
			cIdx, cVal := c.Row(i)
			out.Idx, out.Val = mergeAssignInto(cIdx, cVal, es[:], acc, out.Idx, out.Val)
			out.End(i)
		}
	})
}

// KronCSR computes the Kronecker product out = a ⊗ b with element
// combination mul (extension operation).
func KronCSR[DA, DB, DC any](a *CSR[DA], b *CSR[DB], mul func(DA, DB) DC) *CSR[DC] {
	nr := a.NRows * b.NRows
	nc := a.NCols * b.NCols
	out := &CSR[DC]{NRows: nr, NCols: nc, Ptr: make([]int, nr+1)}
	// Row (ia, ib) has len(a.Row(ia)) * len(b.Row(ib)) entries.
	for ia := 0; ia < a.NRows; ia++ {
		la := a.Ptr[ia+1] - a.Ptr[ia]
		for ib := 0; ib < b.NRows; ib++ {
			lb := b.Ptr[ib+1] - b.Ptr[ib]
			r := ia*b.NRows + ib
			out.Ptr[r+1] = out.Ptr[r] + la*lb
		}
	}
	nnz := out.Ptr[nr]
	out.ColIdx = make([]int, nnz)
	out.Val = make([]DC, nnz)
	parallel.For(a.NRows, 1, func(lo, hi int) {
		for ia := lo; ia < hi; ia++ {
			for ib := 0; ib < b.NRows; ib++ {
				r := ia*b.NRows + ib
				w := out.Ptr[r]
				for pa := a.Ptr[ia]; pa < a.Ptr[ia+1]; pa++ {
					base := a.ColIdx[pa] * b.NCols
					for pb := b.Ptr[ib]; pb < b.Ptr[ib+1]; pb++ {
						out.ColIdx[w] = base + b.ColIdx[pb]
						out.Val[w] = mul(a.Val[pa], b.Val[pb])
						w++
					}
				}
			}
		}
	})
	return out
}
