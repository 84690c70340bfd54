package sparse

import (
	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/pool"
)

// SpGEMM computes the semiring matrix product C = A ⊕.⊗ B using Gustavson's
// row-by-row algorithm, parallel over nnz-balanced row ranges of A.
//
// When mask is non-nil the mask is applied *inside* the kernel: positions the
// mask disallows are never accumulated, which is the pruning the paper's
// betweenness-centrality example relies on (Section VII-C: the structural
// complement of numsp prunes already-discovered vertices during frontier
// expansion). The mask also picks the loop, once per chunk and never per
// flop: no mask and a complemented mask accumulate into a sparse accumulator
// (the output's structure is unknown until the row is done), a
// non-complemented mask *is* the output's structure and takes the
// slot-accumulating kernel below.
//
// This is the closure form, as DotMxV's is; Ring.SpGEMM takes a semiring.
func SpGEMM[DA, DB, DC any](a *CSR[DA], b *CSR[DB], mul func(DA, DB) DC, add func(DC, DC) DC, mask *MatMask) *CSR[DC] {
	return Ring[DA, DB, DC]{Mul: mul, Add: add}.SpGEMM(a, b, mask)
}

// SpGEMM is Gustavson's product under r; the mask-shaped kernel runs r's
// specialized loop when there is one.
//
//grblint:hotpath
func (r Ring[DA, DB, DC]) SpGEMM(a *CSR[DA], b *CSR[DB], mask *MatMask) *CSR[DC] {
	if mask != nil && !mask.Comp {
		return spgemmMaskShaped(a, b, r, mask)
	}
	mul, add := r.Mul, r.Add
	faults.Step("sparse.kernel.spgemm")
	done := obs.KernelStart("spgemm")
	c := EmitCSR(a.NRows, b.NCols, a.Ptr, func(out *Rows[DC], lo, hi int) {
		out.Reserve(ProductBound(a, b.Ptr, b.NCols, lo, hi))
		spa := NewSPA[DC](b.NCols)
		if mask == nil {
			for i := lo; i < hi; i++ {
				spa.Reset()
				for pa := a.Ptr[i]; pa < a.Ptr[i+1]; pa++ {
					k := a.ColIdx[pa]
					av := a.Val[pa]
					for pb := b.Ptr[k]; pb < b.Ptr[k+1]; pb++ {
						spa.Accumulate(b.ColIdx[pb], mul(av, b.Val[pb]), add)
					}
				}
				out.Idx, out.Val = spa.Gather(out.Idx, out.Val)
				out.End(i)
			}
			return
		}
		// Complemented mask: row i's stored mask columns are stamped with
		// i+1 (the buffer arrives zeroed and rows ascend, so an older stamp
		// never equals the current one) and a flop landing on a stamped
		// column is dropped before ⊗ runs.
		stamp := pool.GetInts(b.NCols)
		defer pool.PutInts(stamp)
		for i := lo; i < hi; i++ {
			spa.Reset()
			cur := i + 1
			for _, j := range mask.StrRow(i) {
				stamp[j] = cur
			}
			for pa := a.Ptr[i]; pa < a.Ptr[i+1]; pa++ {
				k := a.ColIdx[pa]
				av := a.Val[pa]
				for pb := b.Ptr[k]; pb < b.Ptr[k+1]; pb++ {
					j := b.ColIdx[pb]
					if stamp[j] == cur {
						continue
					}
					spa.Accumulate(j, mul(av, b.Val[pb]), add)
				}
			}
			out.Idx, out.Val = spa.Gather(out.Idx, out.Val)
			out.End(i)
		}
	})
	done(c.NNZ())
	return c
}

// ProductBound bounds the entries rows [lo, hi) of a·b can hold, b given by
// its row pointer bPtr and its column count: each row's flops, capped at the
// column count. It is what a product's chunk reserves its arena by.
func ProductBound[D any](a *CSR[D], bPtr []int, ncols, lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		flops := 0
		for _, k := range a.ColIdx[a.Ptr[i]:a.Ptr[i+1]] {
			flops += bPtr[k+1] - bPtr[k]
		}
		n += min(flops, ncols)
	}
	return n
}

// spgemmMaskShaped is SpGEMM under a non-complemented mask. The product is a
// subset of the mask's effective pattern, so the output is laid out before a
// single flop runs: entry p of mask.EffIdx owns slot p of an nnz(M)-long
// value/presence pair. Per row the mask row's columns are stamped with their
// slot, each admitted flop folds straight into its slot, and one pass at the
// end compacts the filled slots into the result — no accumulator values, no
// touched-index list, no per-row sort or gather, no assembly from row
// slices. An output entry receives its terms in ascending k, the order the
// sparse accumulator folds them in, so floating-point sums are
// bit-identical to the unmasked product filtered by the mask.
//
//grblint:hotpath
func spgemmMaskShaped[DA, DB, DC any](a *CSR[DA], b *CSR[DB], r Ring[DA, DB, DC], mask *MatMask) *CSR[DC] {
	faults.Step("sparse.kernel.spgemm.masked")
	done := obs.KernelStart("spgemm.masked")
	nm := mask.EffPtr[a.NRows]
	val := make([]DC, nm)
	has := pool.GetBools(nm)
	defer pool.PutBools(has)
	ptr := make([]int, a.NRows+1)
	key := r.key()
	spec := entryFor[DA, DB, DC](key)
	mul, add := r.Mul, r.Add
	parallel.ForWeighted(a.NRows, a.Ptr, func(lo, hi int) {
		// slot[j] is 1 + the position of column j in mask.EffIdx. Positions
		// only grow along the rows of a chunk, so "stamped by the current
		// row" is one compare against the row's first position and the
		// table is never cleared.
		slot := pool.GetInts(b.NCols)
		defer pool.PutInts(slot)
		if spec != nil && spec.slot(key, a, b, mask, slot, val, has, ptr, lo, hi) {
			return
		}
		for i := lo; i < hi; i++ {
			base, end := mask.EffPtr[i], mask.EffPtr[i+1]
			if base == end || a.Ptr[i] == a.Ptr[i+1] {
				continue
			}
			for p := base; p < end; p++ {
				slot[mask.EffIdx[p]] = p + 1
			}
			filled := 0
			for pa := a.Ptr[i]; pa < a.Ptr[i+1]; pa++ {
				k := a.ColIdx[pa]
				av := a.Val[pa]
				for pb := b.Ptr[k]; pb < b.Ptr[k+1]; pb++ {
					s := slot[b.ColIdx[pb]]
					if s <= base {
						continue
					}
					s--
					x := mul(av, b.Val[pb])
					if has[s] {
						val[s] = add(val[s], x)
					} else {
						val[s], has[s] = x, true
						filled++
					}
				}
			}
			ptr[i+1] = filled
		}
	})
	c := compactSlots(a.NRows, b.NCols, mask, ptr, val, has)
	done(c.NNZ())
	return c
}

// SpGEMMDotMasked computes C⟨M⟩ = A ⊕.⊗ Bᵀ under a non-complemented mask
// from B as stored (n×k against A's m×k) — the transpose is never formed.
// Row i of A is scattered into a position table once; every mask entry
// (i, j) then walks row j of B and folds the products at the columns the two
// rows share into slot p of the same nnz(M)-long layout spgemmMaskShaped
// fills. B's rows are sorted, so an entry's terms arrive in ascending k with
// ⊗'s operands in A-then-B order: the result is bit-identical to
// SpGEMM(a, b.Transpose(), …, mask). Work is Σ_{(i,j)∈M} |B(j)| against
// Gustavson's Σ_{(i,k)∈A} |Bᵀ(k)| plus the transpose; DotMaskedWins compares
// the two. Rows are partitioned by mask entries, which is where the work is.
// Under a predefined ⟨+, pair⟩ — TriangleCount's — an entry is a count of
// the columns the two rows share, read from their ColIdx alone.
//
//grblint:hotpath
func (r Ring[DA, DB, DC]) SpGEMMDotMasked(a *CSR[DA], b *CSR[DB], mask *MatMask) *CSR[DC] {
	faults.Step("sparse.kernel.spgemm.dot")
	done := obs.KernelStart("spgemm.dot")
	nm := mask.EffPtr[a.NRows]
	val := make([]DC, nm)
	has := pool.GetBools(nm)
	defer pool.PutBools(has)
	ptr := make([]int, a.NRows+1)
	key := r.key()
	spec := entryFor[DA, DB, DC](key)
	mul, add := r.Mul, r.Add
	parallel.ForWeighted(a.NRows, mask.EffPtr, func(lo, hi int) {
		// pos[k] is 1 + the storage position of A(i, k); as with the slot
		// table, positions grow along the rows of a chunk and the row's
		// first position tells current from stale.
		pos := pool.GetInts(a.NCols)
		defer pool.PutInts(pos)
		if spec != nil && spec.dotMasked(key, a, b, mask, pos, val, has, ptr, lo, hi) {
			return
		}
		for i := lo; i < hi; i++ {
			base := a.Ptr[i]
			if mask.EffPtr[i] == mask.EffPtr[i+1] || base == a.Ptr[i+1] {
				continue
			}
			for pa := base; pa < a.Ptr[i+1]; pa++ {
				pos[a.ColIdx[pa]] = pa + 1
			}
			filled := 0
			for p := mask.EffPtr[i]; p < mask.EffPtr[i+1]; p++ {
				j := mask.EffIdx[p]
				var acc DC
				hit := false
				for pb := b.Ptr[j]; pb < b.Ptr[j+1]; pb++ {
					s := pos[b.ColIdx[pb]]
					if s <= base {
						continue
					}
					x := mul(a.Val[s-1], b.Val[pb])
					if hit {
						acc = add(acc, x)
					} else {
						acc, hit = x, true
					}
				}
				if hit {
					val[p], has[p] = acc, true
					filled++
				}
			}
			ptr[i+1] = filled
		}
	})
	c := compactSlots(a.NRows, b.NRows, mask, ptr, val, has)
	done(c.NNZ())
	return c
}

// DotMaskedWins is the selection rule between the two ways to compute
// C⟨M⟩ = A ⊕.⊗ Bᵀ under a non-complemented mask: it reports whether
// SpGEMMDotMasked's inner-loop steps, Σ_{(i,j)∈M} |B(j)|, are no more than
// what transposing B and running SpGEMM costs — Gustavson's flops
// Σ_{(i,k)∈A} |Bᵀ(k)| plus nnz(B) to build Bᵀ. bt is B's transpose when the
// caller already holds one (its row pointer gives the column counts and the
// transpose is then free), nil otherwise. Three O(nnz) passes, read from the
// operands alone.
func DotMaskedWins[DA, DB any](a *CSR[DA], b, bt *CSR[DB], mask *MatMask) bool {
	dot := 0
	for _, j := range mask.EffIdx[:mask.EffPtr[a.NRows]] {
		dot += b.Ptr[j+1] - b.Ptr[j]
	}
	gustavson := 0
	if bt != nil {
		for _, k := range a.ColIdx[:a.NNZ()] {
			gustavson += bt.Ptr[k+1] - bt.Ptr[k]
		}
		return dot <= gustavson
	}
	colCount := pool.GetInts(b.NCols)
	for _, k := range b.ColIdx[:b.NNZ()] {
		colCount[k]++
	}
	for _, k := range a.ColIdx[:a.NNZ()] {
		gustavson += colCount[k]
	}
	pool.PutInts(colCount)
	return dot <= gustavson+b.NNZ()
}

// compactSlots turns the slot form the mask-shaped kernels fill — val[p] and
// has[p] for entry p of mask.EffIdx, ptr[i+1] the number of filled slots of
// row i — into the CSR result, taking ownership of ptr.
func compactSlots[DC any](nrows, ncols int, mask *MatMask, ptr []int, val []DC, has []bool) *CSR[DC] {
	for i := 0; i < nrows; i++ {
		ptr[i+1] += ptr[i]
	}
	c := &CSR[DC]{NRows: nrows, NCols: ncols, Ptr: ptr}
	c.ColIdx = make([]int, ptr[nrows])
	c.Val = make([]DC, ptr[nrows])
	parallel.ForWeighted(nrows, mask.EffPtr, func(lo, hi int) {
		q := ptr[lo]
		for p := mask.EffPtr[lo]; p < mask.EffPtr[hi]; p++ {
			if has[p] {
				c.ColIdx[q], c.Val[q] = mask.EffIdx[p], val[p]
				q++
			}
		}
	})
	return c
}

// SpGEMMHeap is the heap-merge SpGEMM variant used for the DESIGN.md
// ablation: instead of a dense accumulator it performs a k-way merge of the
// B rows selected by each A row. Asymptotically better for hypersparse
// outputs, usually slower in practice — which is the point of the ablation.
func SpGEMMHeap[DA, DB, DC any](a *CSR[DA], b *CSR[DB], mul func(DA, DB) DC, add func(DC, DC) DC) *CSR[DC] {
	return EmitCSR(a.NRows, b.NCols, a.Ptr, func(out *Rows[DC], lo, hi int) {
		out.Reserve(ProductBound(a, b.Ptr, b.NCols, lo, hi))
		longest := 0
		for i := lo; i < hi; i++ {
			longest = max(longest, a.Ptr[i+1]-a.Ptr[i])
		}
		h := make([]heapEntry[DA], 0, longest)
		for i := lo; i < hi; i++ {
			h = spgemmHeapRow(a, b, i, mul, add, h, out)
			out.End(i)
		}
	})
}

// heapEntry is a cursor into one selected row of B during the k-way merge.
type heapEntry[DA any] struct {
	col  int // current column of this cursor
	pos  int // storage position in b
	end  int // end of this row's storage
	aval DA  // the A value scaling this row
}

// spgemmHeapRow appends row i of a·b to out, merging in the empty heap h,
// and returns h emptied again for the next row.
func spgemmHeapRow[DA, DB, DC any](a *CSR[DA], b *CSR[DB], i int, mul func(DA, DB) DC, add func(DC, DC) DC, h []heapEntry[DA], out *Rows[DC]) []heapEntry[DA] {
	for pa := a.Ptr[i]; pa < a.Ptr[i+1]; pa++ {
		k := a.ColIdx[pa]
		if b.Ptr[k] < b.Ptr[k+1] {
			h = append(h, heapEntry[DA]{col: b.ColIdx[b.Ptr[k]], pos: b.Ptr[k], end: b.Ptr[k+1], aval: a.Val[pa]})
		}
	}
	heapify(h)
	start := len(out.Idx)
	for len(h) > 0 {
		top := h[0]
		x := mul(top.aval, b.Val[top.pos])
		if n := len(out.Idx); n > start && out.Idx[n-1] == top.col {
			out.Val[n-1] = add(out.Val[n-1], x)
		} else {
			out.Idx = append(out.Idx, top.col)
			out.Val = append(out.Val, x)
		}
		top.pos++
		if top.pos < top.end {
			top.col = b.ColIdx[top.pos]
			h[0] = top
			siftDown(h, 0)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) > 0 {
				siftDown(h, 0)
			}
		}
	}
	return h
}

func heapify[DA any](h []heapEntry[DA]) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func siftDown[DA any](h []heapEntry[DA], i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].col < h[smallest].col {
			smallest = l
		}
		if r < len(h) && h[r].col < h[smallest].col {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
