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

// UnionCSR computes the eWiseAdd merge of a and b row-parallel, each row
// by unionRow. op names add as VecUnion's op does.
func UnionCSR[D any](a, b *CSR[D], add func(D, D) D, op Opcode) *CSR[D] {
	l := opLoops[D, D, D](op)
	return EmitCSR(a.NRows, a.NCols, a.Ptr, func(out *Rows[D], lo, hi int) {
		out.Reserve(a.Ptr[hi] - a.Ptr[lo] + b.Ptr[hi] - b.Ptr[lo])
		for i := lo; i < hi; i++ {
			aIdx, aVal := a.Row(i)
			bIdx, bVal := b.Row(i)
			idx, val := out.spare()
			out.grow(unionRow(l, aIdx, aVal, bIdx, bVal, add, idx, val))
			out.End(i)
		}
	})
}

// IntersectCSR computes the eWiseMult merge of a and b row-parallel, each
// row by intersectRow. op names mul as VecIntersect's op does.
func IntersectCSR[DA, DB, DC any](a *CSR[DA], b *CSR[DB], mul func(DA, DB) DC, op Opcode) *CSR[DC] {
	l := opLoops[DC, DA, DB](op)
	return EmitCSR(a.NRows, a.NCols, a.Ptr, func(out *Rows[DC], lo, hi int) {
		out.Reserve(min(a.Ptr[hi]-a.Ptr[lo], b.Ptr[hi]-b.Ptr[lo]))
		for i := lo; i < hi; i++ {
			aIdx, aVal := a.Row(i)
			bIdx, bVal := b.Row(i)
			idx, val := out.spare()
			out.grow(intersectRow(l, aIdx, aVal, bIdx, bVal, mul, idx, val))
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
	parallel.For(len(a.Val), len(a.Val), func(lo, hi int) {
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
// result's Ptr, the second copies the kept entries into ColIdx/Val of the
// survivors' count. The result's arrays come from the pool, as a vector
// kernel's do, so a select whose result is freed or overwritten — a
// triangle count's tril — computes into the arrays of the last one: Ptr
// zeroed (pool.Vals; Ptr[0] is never written), ColIdx and Val as they come
// (pool.RawVals), every position written. The flags, each one written too,
// are scratch drawn from the value shelves (pool.GetVals), which hold
// nothing across a collection: a select is often a one-off, and a flag
// buffer held strongly after it stayed resident — 2.2 MB of peak RSS on
// shard2-read, measured.
//
//grblint:hotpath
func SelectCSR[D any](a *CSR[D], pred func(D, int, int) bool) *CSR[D] {
	out := &CSR[D]{NRows: a.NRows, NCols: a.NCols, Ptr: pool.Vals[int](a.NRows + 1)}
	keep := pool.GetVals[bool](a.NNZ())
	defer pool.PutVals(keep)
	parallel.ForWeighted(a.NRows, a.Ptr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			kept := 0
			for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
				k := pred(a.Val[p], i, a.ColIdx[p])
				keep[p] = k
				if k {
					kept++
				}
			}
			out.Ptr[i+1] = kept
		}
	})
	for i := 0; i < a.NRows; i++ {
		out.Ptr[i+1] += out.Ptr[i]
	}
	out.ColIdx = pool.RawVals[int](out.NNZ())
	out.Val = pool.RawVals[D](out.NNZ())
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

// Band names a positional select: one that keeps an entry (i, j) by its
// diagonal offset j − i alone, against a bound k. They are the predicates
// of internal/builtins' Tril, Triu, DiagSel and OffDiag, which core hands to
// SelectBandCSR instead of calling them once per entry.
type Band uint8

const (
	BandNone    Band = iota
	BandTril         // j − i ≤ k
	BandTriu         // j − i ≥ k
	BandDiag         // j − i = k
	BandOffDiag      // j − i ≠ k
)

// SelectBandCSR is SelectCSR with the predicate band and k name, computed
// from positions alone: a row's columns ascend, so its entries with
// j − i < k, = k and > k are three consecutive runs, and the kept ones are
// a prefix, a suffix, the one diagonal entry, or all but it. The first pass
// finds each row's split (bandSplit) into pooled scratch and counts the
// kept entries into the result's Ptr; the second copies the kept runs. The
// result is the one SelectCSR gives with the predicate, bit for bit, and
// its arrays come from the pool as SelectCSR's do.
//
//grblint:hotpath
func SelectBandCSR[D any](a *CSR[D], band Band, k int) *CSR[D] {
	out := &CSR[D]{NRows: a.NRows, NCols: a.NCols, Ptr: pool.Vals[int](a.NRows + 1)}
	split := pool.GetInts(a.NRows)
	defer pool.PutInts(split)
	parallel.ForWeighted(a.NRows, a.Ptr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			split[i] = bandSplit(a, i, k)
			s1, e1, s2, e2 := bandRuns(a, i, split[i], band, k)
			out.Ptr[i+1] = e1 - s1 + e2 - s2
		}
	})
	for i := 0; i < a.NRows; i++ {
		out.Ptr[i+1] += out.Ptr[i]
	}
	out.ColIdx = pool.RawVals[int](out.NNZ())
	out.Val = pool.RawVals[D](out.NNZ())
	parallel.ForWeighted(a.NRows, a.Ptr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s1, e1, s2, e2 := bandRuns(a, i, split[i], band, k)
			w := out.Ptr[i]
			for p := s1; p < e1; p++ {
				out.ColIdx[w], out.Val[w] = a.ColIdx[p], a.Val[p]
				w++
			}
			for p := s2; p < e2; p++ {
				out.ColIdx[w], out.Val[w] = a.ColIdx[p], a.Val[p]
				w++
			}
		}
	})
	return out
}

// bandSplitScan is the row length up to which bandSplit counts instead of
// searching: a count has no branch to mispredict.
const bandSplitScan = 32

// bandSplit returns the position of the first entry of row i of a with
// j − i ≥ k, or the row's end when there is none.
func bandSplit[D any](a *CSR[D], i, k int) int {
	lo, hi := a.Ptr[i], a.Ptr[i+1]
	if hi-lo <= bandSplitScan {
		below := lo
		for _, j := range a.ColIdx[lo:hi] {
			if j-i < k {
				below++
			}
		}
		return below
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.ColIdx[mid]-i < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bandRuns returns the storage runs [s1, e1) and [s2, e2) of row i of a
// that band keeps, in order, given its split below; an unused run is
// empty. The row's columns are distinct, so at most the entry at below has
// j − i = k.
func bandRuns[D any](a *CSR[D], i, below int, band Band, k int) (s1, e1, s2, e2 int) {
	lo, hi := a.Ptr[i], a.Ptr[i+1]
	above := below // first entry with j − i > k
	if above < hi && a.ColIdx[above]-i == k {
		above++
	}
	switch band {
	case BandTril:
		return lo, above, hi, hi
	case BandTriu:
		return below, hi, hi, hi
	case BandDiag:
		return below, above, hi, hi
	}
	return lo, below, above, hi
}

// ReduceRowsCSR folds each row of a with the monoid operation, producing a
// sparse vector with entries only for nonempty rows (Table II "reduce").
// A row folds from its first value. A non-nil term predicate stops each
// row's fold at the annihilator; op names add as VecReduce's op does.
func ReduceRowsCSR[D any](a *CSR[D], add func(D, D) D, op Opcode, term func(D) bool) *Vec[D] {
	faults.Step("sparse.kernel.reduce.rows")
	done := obs.KernelStart("reduce.rows")
	l := opLoops[D, D, D](op)
	out := &Vec[D]{N: a.NRows}
	for i := 0; i < a.NRows; i++ {
		lo, hi := a.Ptr[i], a.Ptr[i+1]
		if lo == hi {
			continue
		}
		out.Idx = append(out.Idx, i)
		out.Val = append(out.Val, fold(l, a.Val[lo], a.Val[lo+1:hi], add, term))
	}
	done(out.NVals())
	return out
}

// ReduceAllCSR folds every stored value of a with the monoid operation
// starting from identity; stored reports whether a had any entries. A
// non-nil term predicate stops the fold at the annihilator; op names add as
// VecReduce's op does.
func ReduceAllCSR[D any](a *CSR[D], add func(D, D) D, op Opcode, identity D, term func(D) bool) (D, bool) {
	faults.Step("sparse.kernel.reduce.all")
	done := obs.KernelStart("reduce.all")
	acc := fold(opLoops[D, D, D](op), identity, a.Val[:a.NNZ()], add, term)
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
// accumOp names accum as UnionCSR's op names add.
func WriteCSR[D any](c, t *CSR[D], mask *MatMask, accum func(D, D) D, accumOp Opcode, replace bool) *CSR[D] {
	z := t
	if accum != nil {
		z = UnionCSR(c, t, accum, accumOp)
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

// sortRowCutoff is the row length up to which sortRow sorts by insertion.
const sortRowCutoff = 32

// sortRow sorts a row's (idx, val) pairs by idx. Extract leaves a row out
// of order when its column list does not ascend, a whole row of it when the
// list reverses or shuffles the columns. A row in order is left as it is, a
// short one is sorted by insertion, and a longer one by an in-place
// heapsort, O(d log d) where insertion is O(d²): a reversed 4 000-entry row
// took 6.45 ms by insertion. The indices of a row are distinct (each output
// column q appears once), so no order among equals needs keeping.
func sortRow[D any](idx []int, val []D) {
	sorted := true
	for k := 1; k < len(idx) && sorted; k++ {
		sorted = idx[k-1] < idx[k]
	}
	switch {
	case sorted:
	case len(idx) <= sortRowCutoff:
		for i := 1; i < len(idx); i++ {
			xi, xv := idx[i], val[i]
			j := i - 1
			for j >= 0 && idx[j] > xi {
				idx[j+1], val[j+1] = idx[j], val[j]
				j--
			}
			idx[j+1], val[j+1] = xi, xv
		}
	default:
		n := len(idx)
		for root := n/2 - 1; root >= 0; root-- {
			siftRow(idx, val, root, n)
		}
		for end := n - 1; end > 0; end-- {
			idx[0], idx[end] = idx[end], idx[0]
			val[0], val[end] = val[end], val[0]
			siftRow(idx, val, 0, end)
		}
	}
}

// siftRow restores the max-heap on idx[:n] below root, moving val along.
func siftRow[D any](idx []int, val []D, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && idx[c+1] > idx[c] {
			c++
		}
		if idx[root] >= idx[c] {
			return
		}
		idx[root], idx[c] = idx[c], idx[root]
		val[root], val[c] = val[c], val[root]
		root = c
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

// The matrix assigns write each assigned row by assignRow, the vector
// assign's row, into the room their arena reserved by cum (Rows.spare), and
// copy every other row of c as it is. The targets are sorted once per call
// (ascendingTargets).

// AssignExpandCSR computes the Z content for c(rows, cols) = a per the
// assign semantics: within the assigned region entries are replaced by a's
// mapped entries (deleted where a has none, kept where accum is non-nil);
// outside it c is untouched. rows and cols must each be duplicate-free
// (validated by the caller).
func AssignExpandCSR[D any](c, a *CSR[D], rows, cols []int, accum func(D, D) D) *CSR[D] {
	slot, cum := assignRows(c, rows, len(cols))
	targets, order := ascendingTargets(cols)
	defer releaseAssign(slot, cum, targets, order)
	return EmitCSR(c.NRows, c.NCols, cum, func(out *Rows[D], lo, hi int) {
		out.Reserve(cum[hi] - cum[lo])
		for i := lo; i < hi; i++ {
			if slot[i] == 0 {
				out.Copy(c, i, i+1)
				continue
			}
			aIdx, aVal := a.Row(slot[i] - 1)
			src := listSource[D]{idx: aIdx, val: aVal, order: order}
			cIdx, cVal := c.Row(i)
			idx, val := out.spare()
			out.grow(assignRow(cIdx, cVal, targets, src.at, accum, idx, val))
			out.End(i)
		}
	})
}

// AssignScalarExpandCSR computes the Z content for c(rows, cols) = x: every
// assigned position receives x (combined with accum where an entry exists).
func AssignScalarExpandCSR[D any](c *CSR[D], x D, rows, cols []int, accum func(D, D) D) *CSR[D] {
	slot, cum := assignRows(c, rows, len(cols))
	targets, order := ascendingTargets(cols)
	defer releaseAssign(slot, cum, targets, order)
	return EmitCSR(c.NRows, c.NCols, cum, func(out *Rows[D], lo, hi int) {
		out.Reserve(cum[hi] - cum[lo])
		scalar := func(int) (D, bool) { return x, true }
		for i := lo; i < hi; i++ {
			if slot[i] == 0 {
				out.Copy(c, i, i+1)
				continue
			}
			cIdx, cVal := c.Row(i)
			idx, val := out.spare()
			out.grow(assignRow(cIdx, cVal, targets, scalar, accum, idx, val))
			out.End(i)
		}
	})
}

// releaseAssign gives back what assignRows and ascendingTargets drew.
func releaseAssign(slot, cum, targets, order []int) {
	pool.PutInts(slot)
	pool.PutInts(cum)
	releaseTargets(targets, order)
}

// AssignRowCSR computes c(i, cols) ⊙= u (GrB_Row_assign): row i becomes
// c's row with the assigned columns replaced by u's entries (deleted where u
// has none, kept where accum is non-nil), written under the column-extent
// mask and replace as MaskMergeVec writes a vector; every other row is c's.
// The assigned row is written into pooled scratch, which the mask merge
// reads.
func AssignRowCSR[D any](c *CSR[D], u *Vec[D], i int, cols []int, accum func(D, D) D, mask *VecMask, replace bool) *CSR[D] {
	cIdx, cVal := c.Row(i)
	targets, order := ascendingTargets(cols)
	m := len(cIdx) + len(targets)
	idx, val := pool.GetVals[int](m), pool.GetVals[D](m)
	defer pool.PutVals(idx)
	defer pool.PutVals(val)
	src := listSource[D]{idx: u.Idx, val: u.Val, order: order}
	n := assignRow(cIdx, cVal, targets, src.at, accum, idx, val)
	releaseTargets(targets, order)
	zIdx, zVal := idx[:n], val[:n]
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
	defer releaseAssign(slot, cum, nil, nil)
	return EmitCSR(c.NRows, c.NCols, cum, func(out *Rows[D], lo, hi int) {
		out.Reserve(cum[hi] - cum[lo])
		cur := MaskCursor{Mask: mask}
		target := []int{j}
		for i := lo; i < hi; i++ {
			acc, k := accum, slot[i]-1
			switch allowed := cur.Allows(i); {
			case allowed && k >= 0: // u(k) at column j, under accum
			case !allowed && replace: // no source and no accum: j's entry goes
				acc, k = nil, -1
			default:
				out.Copy(c, i, i+1)
				continue
			}
			cIdx, cVal := c.Row(i)
			idx, val := out.spare()
			out.grow(assignRow(cIdx, cVal, target, func(int) (D, bool) { return u.Get(k) }, acc, idx, val))
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
	parallel.For(a.NRows, nnz, func(lo, hi int) {
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
