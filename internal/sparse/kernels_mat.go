package sparse

import (
	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/parallel"
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

// rowsView returns per-row index/value slices aliasing m's storage.
func rowsView[T any](m *CSR[T]) ([][]int, [][]T) {
	ri := make([][]int, m.NRows)
	rv := make([][]T, m.NRows)
	for i := 0; i < m.NRows; i++ {
		ri[i], rv[i] = m.Row(i)
	}
	return ri, rv
}

// UnionCSR computes the eWiseAdd merge of a and b row-parallel.
func UnionCSR[D any](a, b *CSR[D], add func(D, D) D) *CSR[D] {
	ri := make([][]int, a.NRows)
	rv := make([][]D, a.NRows)
	parallel.ForWeighted(a.NRows, a.Ptr, func(lo, hi int) {
		var idxArena []int
		var valArena []D
		offs := make([]int, 0, hi-lo+1)
		offs = append(offs, 0)
		for i := lo; i < hi; i++ {
			aIdx, aVal := a.Row(i)
			bIdx, bVal := b.Row(i)
			idxArena, valArena = unionRow(aIdx, aVal, bIdx, bVal, add, idxArena, valArena)
			offs = append(offs, len(idxArena))
		}
		for i := lo; i < hi; i++ {
			k := i - lo
			ri[i] = idxArena[offs[k]:offs[k+1]]
			rv[i] = valArena[offs[k]:offs[k+1]]
		}
	})
	return assemble(a.NRows, a.NCols, ri, rv)
}

// IntersectCSR computes the eWiseMult merge of a and b row-parallel.
func IntersectCSR[DA, DB, DC any](a *CSR[DA], b *CSR[DB], mul func(DA, DB) DC) *CSR[DC] {
	ri := make([][]int, a.NRows)
	rv := make([][]DC, a.NRows)
	parallel.ForWeighted(a.NRows, a.Ptr, func(lo, hi int) {
		var idxArena []int
		var valArena []DC
		offs := make([]int, 0, hi-lo+1)
		offs = append(offs, 0)
		for i := lo; i < hi; i++ {
			aIdx, aVal := a.Row(i)
			bIdx, bVal := b.Row(i)
			idxArena, valArena = intersectRow(aIdx, aVal, bIdx, bVal, mul, idxArena, valArena)
			offs = append(offs, len(idxArena))
		}
		for i := lo; i < hi; i++ {
			k := i - lo
			ri[i] = idxArena[offs[k]:offs[k+1]]
			rv[i] = valArena[offs[k]:offs[k+1]]
		}
	})
	return assemble(a.NRows, a.NCols, ri, rv)
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
// as in MaskMergeVec); callers holding a shared z must clone first.
func MaskMergeCSR[D any](c, z *CSR[D], mask *MatMask, replace bool) *CSR[D] {
	if mask == nil {
		return z
	}
	ri := make([][]int, c.NRows)
	rv := make([][]D, c.NRows)
	parallel.For(c.NRows, 64, func(lo, hi int) {
		// Chunk-local arena (see SpGEMM): one allocation stream per chunk.
		var idxArena []int
		var valArena []D
		offs := make([]int, 0, hi-lo+1)
		offs = append(offs, 0)
		for i := lo; i < hi; i++ {
			cIdx, cVal := c.Row(i)
			zIdx, zVal := z.Row(i)
			rm := mask.rowMask(i)
			idxArena, valArena = maskMergeRow(cIdx, cVal, zIdx, zVal, &rm, replace, idxArena, valArena)
			offs = append(offs, len(idxArena))
		}
		for i := lo; i < hi; i++ {
			k := i - lo
			ri[i] = idxArena[offs[k]:offs[k+1]]
			rv[i] = valArena[offs[k]:offs[k+1]]
		}
	})
	return assemble(c.NRows, c.NCols, ri, rv)
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
// pre-validated by the caller.
func ExtractCSR[D any](a *CSR[D], rows, cols []int) *CSR[D] {
	// Map each source column to the list of output columns it feeds.
	colTargets := make([][]int, a.NCols)
	for q, j := range cols {
		colTargets[j] = append(colTargets[j], q)
	}
	nr := len(rows)
	ri := make([][]int, nr)
	rv := make([][]D, nr)
	parallel.For(nr, 32, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			src := rows[r]
			var idx []int
			var val []D
			for p := a.Ptr[src]; p < a.Ptr[src+1]; p++ {
				for _, q := range colTargets[a.ColIdx[p]] {
					idx = append(idx, q)
					val = append(val, a.Val[p])
				}
			}
			sortRow(idx, val)
			ri[r], rv[r] = idx, val
		}
	})
	return assemble(nr, len(cols), ri, rv)
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

// AssignExpandCSR computes the Z content for c(rows, cols) = a per the
// assign semantics: within the assigned region entries are replaced by a's
// mapped entries (deleted where a has none, kept where accum is non-nil);
// outside it c is untouched. rows and cols must each be duplicate-free
// (validated by the caller).
func AssignExpandCSR[D any](c, a *CSR[D], rows, cols []int, accum func(D, D) D) *CSR[D] {
	ri, rv := rowsView(c)
	parallel.For(len(rows), 16, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			target := rows[k]
			es := make([]assignEntry[D], len(cols))
			arow := a.RowVec(k)
			pa := 0
			for l, j := range cols {
				es[l].target = j
				for pa < len(arow.Idx) && arow.Idx[pa] < l {
					pa++
				}
				if pa < len(arow.Idx) && arow.Idx[pa] == l {
					es[l].val = arow.Val[pa]
					es[l].has = true
				}
			}
			sortAssign(es)
			ri[target], rv[target] = mergeAssign(ri[target], rv[target], es, accum)
		}
	})
	return assemble(c.NRows, c.NCols, ri, rv)
}

// AssignScalarExpandCSR computes the Z content for c(rows, cols) = x: every
// assigned position receives x (combined with accum where an entry exists).
func AssignScalarExpandCSR[D any](c *CSR[D], x D, rows, cols []int, accum func(D, D) D) *CSR[D] {
	sortedCols := append([]int(nil), cols...)
	insertionSortInts(sortedCols)
	es := make([]assignEntry[D], len(sortedCols))
	for l, j := range sortedCols {
		es[l] = assignEntry[D]{target: j, val: x, has: true}
	}
	ri, rv := rowsView(c)
	parallel.For(len(rows), 16, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			target := rows[k]
			ri[target], rv[target] = mergeAssign(ri[target], rv[target], es, accum)
		}
	})
	return assemble(c.NRows, c.NCols, ri, rv)
}

// AssignRowExpandCSR computes Z for c(i, cols) = u (GrB_Row_assign).
func AssignRowExpandCSR[D any](c *CSR[D], u *Vec[D], i int, cols []int, accum func(D, D) D) *CSR[D] {
	ri, rv := rowsView(c)
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
	ri[i], rv[i] = mergeAssign(ri[i], rv[i], es, accum)
	return assemble(c.NRows, c.NCols, ri, rv)
}

// AssignColExpandCSR computes Z for c(rows, j) = u (GrB_Col_assign).
func AssignColExpandCSR[D any](c *CSR[D], u *Vec[D], rows []int, j int, accum func(D, D) D) *CSR[D] {
	ri, rv := rowsView(c)
	parallel.For(len(rows), 64, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			target := rows[k]
			uv, has := u.Get(k)
			es := []assignEntry[D]{{target: j, val: uv, has: has}}
			ri[target], rv[target] = mergeAssign(ri[target], rv[target], es, accum)
		}
	})
	return assemble(c.NRows, c.NCols, ri, rv)
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

// MergeColumn produces the final content for a column assign: out equals c
// everywhere except column j, where positions allowed by the (row-extent)
// mask take z's entry and disallowed positions keep c's entry unless replace
// deletes them. z must differ from c only in column j.
func MergeColumn[D any](c, z *CSR[D], j int, vm *VecMask, replace bool) *CSR[D] {
	ri := make([][]int, c.NRows)
	rv := make([][]D, c.NRows)
	cur := allowsCursor{mask: vm}
	for i := 0; i < c.NRows; i++ {
		allowed := cur.allows(i)
		cIdx, cVal := c.Row(i)
		if !allowed && !replace {
			ri[i], rv[i] = cIdx, cVal
			continue
		}
		// Rebuild the row without its column-j entry, then reinsert z's
		// entry when the mask admits it.
		var idx []int
		var val []D
		for p, col := range cIdx {
			if col == j {
				continue
			}
			idx = append(idx, col)
			val = append(val, cVal[p])
		}
		if zv, zok := z.Get(i, j); allowed && zok {
			pos := len(idx)
			for p, col := range idx {
				if col > j {
					pos = p
					break
				}
			}
			var zero D
			idx = append(idx, 0)
			val = append(val, zero)
			copy(idx[pos+1:], idx[pos:])
			copy(val[pos+1:], val[pos:])
			idx[pos] = j
			val[pos] = zv
		}
		ri[i], rv[i] = idx, val
	}
	return assemble(c.NRows, c.NCols, ri, rv)
}

// MergeRow produces the final content for a row assign: out equals c on all
// rows except row i, which is MaskMergeVec(c.row, z.row, vm, replace). The
// mask has column extent.
func MergeRow[D any](c, z *CSR[D], i int, vm *VecMask, replace bool) *CSR[D] {
	ri, rv := rowsView(c)
	cv := c.RowVec(i)
	zv := z.RowVec(i)
	merged := MaskMergeVec(&cv, &zv, vm, replace)
	ri[i], rv[i] = merged.Idx, merged.Val
	return assemble(c.NRows, c.NCols, ri, rv)
}
