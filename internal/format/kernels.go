package format

import (
	"math/bits"

	"graphblas/internal/faults"
	"graphblas/internal/parallel"
	"graphblas/internal/pool"
	"graphblas/internal/sparse"
)

// Each kernel consults the fault-injection plan once at entry, before its
// parallel region, so an injected failure is raised deterministically on the
// dispatching goroutine and the core's retry-with-fallback can re-run the
// operation on the generic CSR path.

// This file holds the format-specialized multiply kernels the core package
// dispatches to when an operand is stored as bitmap or hypersparse. They
// mirror the contracts of sparse.DotMxV / sparse.SpGEMM: pre-resolved masks,
// plain function operators, fresh output storage.

// denseWithBits scatters u into a dense value array plus a presence bitset
// of the given word count (ceil(u.N/64), matching Bitmap row words).
func denseWithBits[T any](u *sparse.Vec[T], words int) ([]T, []uint64) {
	d := make([]T, u.N)
	bs := make([]uint64, words)
	for k, i := range u.Idx {
		d[i] = u.Val[k]
		bs[i>>6] |= 1 << (uint(i) & 63)
	}
	return d, bs
}

// DotMxVBitmap computes w(i) = ⊕_k mul(a(i,k), u(k)) with a stored as
// bitmap. Presence of both operands over 64 consecutive columns is resolved
// by a single word AND (the matrix row's bitset against the vector's), so
// the per-entry index load and presence branch of the CSR kernel disappear;
// remaining per-entry cost is the two operator calls.
func DotMxVBitmap[DA, DU, DC any](a *Bitmap[DA], u *sparse.Vec[DU], mul func(DA, DU) DC, add func(DC, DC) DC, mask *sparse.VecMask) *sparse.Vec[DC] {
	faults.Step("format.kernel.bitmap.mxv")
	dense, ubits := denseWithBits(u, a.Words)
	rowOut := make([]DC, a.NRows)
	rowHas := make([]bool, a.NRows)
	parallel.For(a.NRows, 8, func(lo, hi int) {
		cur := sparse.MaskCursor{Mask: mask}
		for i := lo; i < hi; i++ {
			if !cur.Allows(i) {
				continue
			}
			rb := a.RowBits(i)
			rv := a.RowVals(i)
			var acc DC
			has := false
			for wi, w := range rb {
				w &= ubits[wi]
				if w == 0 {
					continue
				}
				base := wi << 6
				for w != 0 {
					j := base + bits.TrailingZeros64(w)
					w &= w - 1
					x := mul(rv[j], dense[j])
					if has {
						acc = add(acc, x)
					} else {
						acc = x
						has = true
					}
				}
			}
			if has {
				rowOut[i] = acc
				rowHas[i] = true
			}
		}
	})
	return sparse.FromDense(rowOut, rowHas)
}

// Arith constrains the domains eligible for the specialized plus-times
// kernels: built-in numeric types whose ⊕ and ⊗ compile to machine add and
// multiply, with 0 as the additive identity.
type Arith interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// dotMxVBitmapPlusTimes is DotMxVBitmap for the arithmetic semiring with the
// operator calls inlined: acc += a(i,j)·u(j). This is the kernel the
// "dense-ish mxv" benchmark point exercises; eliminating the two indirect
// calls per entry is where the bitmap layout's speedup comes from. The row's
// first product starts the fold, as in every other layout: starting from 0
// would turn a lone −0 product into +0.
func dotMxVBitmapPlusTimes[T Arith](a *Bitmap[T], u *sparse.Vec[T], mask *sparse.VecMask) *sparse.Vec[T] {
	faults.Step("format.kernel.bitmap.mxv.fast")
	dense, ubits := denseWithBits(u, a.Words)
	rowOut := make([]T, a.NRows)
	rowHas := make([]bool, a.NRows)
	parallel.For(a.NRows, 8, func(lo, hi int) {
		cur := sparse.MaskCursor{Mask: mask}
		for i := lo; i < hi; i++ {
			if !cur.Allows(i) {
				continue
			}
			rb := a.RowBits(i)
			rv := a.RowVals(i)
			var acc T
			has := false
			for wi, w := range rb {
				w &= ubits[wi]
				if w == 0 {
					continue
				}
				base := wi << 6
				if !has {
					j := base + bits.TrailingZeros64(w)
					acc, has = rv[j]*dense[j], true
					if w &= w - 1; w == 0 {
						continue
					}
				}
				if w == ^uint64(0) {
					// Saturated word: straight-line multiply-accumulate
					// over 64 contiguous cells, no per-bit scanning.
					for j := base; j < base+64; j++ {
						acc += rv[j] * dense[j]
					}
					continue
				}
				for w != 0 {
					j := base + bits.TrailingZeros64(w)
					w &= w - 1
					acc += rv[j] * dense[j]
				}
			}
			if has {
				rowOut[i] = acc
				rowHas[i] = true
			}
		}
	})
	return sparse.FromDense(rowOut, rowHas)
}

// TryDotMxVPlusTimes dispatches the specialized arithmetic dot kernel when
// the any-wrapped operands are a bitmap matrix and sparse vector over a
// supported built-in numeric domain. The caller is responsible for having
// verified that the semiring is ⟨+,×⟩ (core reads the operators' opcodes,
// sparse.Opcode).
func TryDotMxVPlusTimes(a, u any, mask *sparse.VecMask) (any, bool) {
	switch am := a.(type) {
	case *Bitmap[float64]:
		if uv, ok := u.(*sparse.Vec[float64]); ok {
			return dotMxVBitmapPlusTimes(am, uv, mask), true
		}
	case *Bitmap[float32]:
		if uv, ok := u.(*sparse.Vec[float32]); ok {
			return dotMxVBitmapPlusTimes(am, uv, mask), true
		}
	case *Bitmap[int]:
		if uv, ok := u.(*sparse.Vec[int]); ok {
			return dotMxVBitmapPlusTimes(am, uv, mask), true
		}
	case *Bitmap[int32]:
		if uv, ok := u.(*sparse.Vec[int32]); ok {
			return dotMxVBitmapPlusTimes(am, uv, mask), true
		}
	case *Bitmap[int64]:
		if uv, ok := u.(*sparse.Vec[int64]); ok {
			return dotMxVBitmapPlusTimes(am, uv, mask), true
		}
	}
	return nil, false
}

// DotMxVHyper computes w(i) = ⊕_k mul(a(i,k), u(k)) with a stored
// hypersparse: only the non-empty rows are visited, so cost scales with the
// stored structure instead of nrows. Empty rows produce no output entry,
// exactly as in the CSR kernel.
func DotMxVHyper[DA, DU, DC any](a *Hyper[DA], u *sparse.Vec[DU], mul func(DA, DU) DC, add func(DC, DC) DC, mask *sparse.VecMask) *sparse.Vec[DC] {
	faults.Step("format.kernel.hyper.mxv")
	dense, present := u.Dense()
	out := &sparse.Vec[DC]{N: a.NRows}
	cur := sparse.MaskCursor{Mask: mask}
	for k, i := range a.Rows {
		if !cur.Allows(i) {
			continue
		}
		idx, val := a.RowAt(k)
		var acc DC
		has := false
		for p, j := range idx {
			if !present[j] {
				continue
			}
			x := mul(val[p], dense[j])
			if has {
				acc = add(acc, x)
			} else {
				acc = x
				has = true
			}
		}
		if has {
			out.Idx = append(out.Idx, i)
			out.Val = append(out.Val, acc)
		}
	}
	return out
}

// PushMxVHyper computes w(i) = ⊕_k mul(a(k,i), u(k)) — w = Aᵀ ⊕.⊗ u — with
// a stored hypersparse. u's stored indices and a's non-empty rows are both
// increasing, so one merge walk finds the rows to expand in O(e + nnz(u))
// instead of per-entry lookups.
func PushMxVHyper[DA, DU, DC any](a *Hyper[DA], u *sparse.Vec[DU], mul func(DA, DU) DC, add func(DC, DC) DC, mask *sparse.VecMask) *sparse.Vec[DC] {
	faults.Step("format.kernel.hyper.mxv.push")
	spa := sparse.NewSPA[DC](a.NCols)
	spa.Reset()
	var allowed *sparse.BitSPA
	comp := false
	if mask != nil {
		allowed = sparse.NewBitSPA(a.NCols)
		allowed.Reset()
		comp = mask.Comp
		if comp {
			allowed.MarkAll(mask.Structure)
		} else {
			allowed.MarkAll(mask.Idx)
		}
	}
	r := 0
	for pu, k := range u.Idx {
		for r < len(a.Rows) && a.Rows[r] < k {
			r++
		}
		if r >= len(a.Rows) {
			break
		}
		if a.Rows[r] != k {
			continue
		}
		uv := u.Val[pu]
		idx, val := a.RowAt(r)
		for p, i := range idx {
			if allowed != nil && allowed.Has(i) == comp {
				continue
			}
			spa.Accumulate(i, mul(val[p], uv), add)
		}
	}
	idx, val := spa.Gather(nil, nil)
	return &sparse.Vec[DC]{N: a.NCols, Idx: idx, Val: val}
}

// SpGEMMBitmap computes C = A ⊕.⊗ B with B stored as bitmap: Gustavson's
// row algorithm where each selected B row is scanned by bitset words rather
// than through an index array, with the same in-kernel mask pruning as
// sparse.SpGEMM. Output is CSR (the product of sparse A and anything has
// sparse rows wherever A does). The mask picks the loop once per chunk —
// unmasked, or one stamp compare per set bit that serves both mask senses —
// never a predicate call per flop. The rows are written through
// sparse.EmitCSR, which charges the allocation governor for the result's
// exact size before allocating it.
//
//grblint:hotpath
func SpGEMMBitmap[DA, DB, DC any](a *sparse.CSR[DA], b *Bitmap[DB], mul func(DA, DB) DC, add func(DC, DC) DC, mask *sparse.MatMask) *sparse.CSR[DC] {
	faults.Step("format.kernel.bitmap.mxm")
	// bPtr is B's row pointer, counted from its presence words, for the
	// bound each chunk reserves its arena by.
	bPtr := pool.GetInts(b.NRows + 1)
	defer pool.PutInts(bPtr)
	for k := 0; k < b.NRows; k++ {
		bPtr[k+1] = bPtr[k] + b.rowNNZ(k)
	}
	charge := func(nnz int) { faults.GovernAlloc("format.alloc.csr", int64(nnz)*(8+elemBytes)) }
	return sparse.EmitCSR(a.NRows, b.NCols, a.Ptr, charge, func(out *sparse.Rows[DC], lo, hi int) {
		out.Reserve(sparse.ProductBound(a, bPtr, b.NCols, lo, hi))
		spa := sparse.NewSPA[DC](b.NCols)
		if mask == nil {
			for i := lo; i < hi; i++ {
				spa.Reset()
				for pa := a.Ptr[i]; pa < a.Ptr[i+1]; pa++ {
					k := a.ColIdx[pa]
					av := a.Val[pa]
					bv := b.RowVals(k)
					for wi, w := range b.RowBits(k) {
						base := wi << 6
						for w != 0 {
							j := base + bits.TrailingZeros64(w)
							w &= w - 1
							spa.Accumulate(j, mul(av, bv[j]), add)
						}
					}
				}
				out.Idx, out.Val = spa.Gather(out.Idx, out.Val)
				out.End(i)
			}
			return
		}
		// marked holds the mask row the sense refers to: the stored
		// structure under a complemented mask (a marked column is dropped),
		// the effective pattern otherwise (an unmarked one is).
		marked := sparse.NewBitSPA(b.NCols)
		for i := lo; i < hi; i++ {
			spa.Reset()
			marked.Reset()
			if mask.Comp {
				marked.MarkAll(mask.StrRow(i))
			} else {
				marked.MarkAll(mask.EffRow(i))
			}
			for pa := a.Ptr[i]; pa < a.Ptr[i+1]; pa++ {
				k := a.ColIdx[pa]
				av := a.Val[pa]
				bv := b.RowVals(k)
				for wi, w := range b.RowBits(k) {
					base := wi << 6
					for w != 0 {
						j := base + bits.TrailingZeros64(w)
						w &= w - 1
						if marked.Has(j) == mask.Comp {
							continue
						}
						spa.Accumulate(j, mul(av, bv[j]), add)
					}
				}
			}
			out.Idx, out.Val = spa.Gather(out.Idx, out.Val)
			out.End(i)
		}
	})
}

// spGEMMBitmapPlusTimes multiplies A (CSR) by B (bitmap) over ⟨+,×⟩,
// materializing the result directly as a bitmap: output structure is the
// word-level OR of the selected B rows and values accumulate in place in the
// dense row, with no sparse accumulator, no per-row sort, and no final
// assembly. This is the "materialize in the cheapest format" path for
// near-dense products. An output entry's first product is stored, later ones
// added — the fold every other layout does; adding the first to the zeroed
// cell would turn a lone −0 product into +0.
func spGEMMBitmapPlusTimes[T Arith](a *sparse.CSR[T], b *Bitmap[T]) *Bitmap[T] {
	faults.Step("format.kernel.bitmap.mxm.fast")
	out := NewBitmap[T](a.NRows, b.NCols)
	parallel.ForWeighted(a.NRows, a.Ptr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ob := out.RowBits(i)
			ov := out.RowVals(i)
			for pa := a.Ptr[i]; pa < a.Ptr[i+1]; pa++ {
				k := a.ColIdx[pa]
				av := a.Val[pa]
				bv := b.RowVals(k)
				for wi, w := range b.RowBits(k) {
					if w == 0 {
						continue
					}
					old := ob[wi]
					ob[wi] |= w
					base := wi << 6
					if w == ^uint64(0) && old == ^uint64(0) {
						for j := base; j < base+64; j++ {
							ov[j] += av * bv[j]
						}
						continue
					}
					for w != 0 {
						bit := bits.TrailingZeros64(w)
						w &= w - 1
						j := base + bit
						if old&(1<<bit) != 0 {
							ov[j] += av * bv[j]
						} else {
							ov[j] = av * bv[j]
						}
					}
				}
			}
		}
	})
	out.recount()
	return out
}

// TryMxMPlusTimes dispatches the specialized arithmetic SpGEMM when the
// any-wrapped operands are a CSR A and bitmap B over a supported numeric
// domain. Returns the product as a *Bitmap of the same domain. As with
// TryDotMxVPlusTimes, the caller must have verified the semiring is ⟨+,×⟩.
func TryMxMPlusTimes(a, b any) (any, bool) {
	switch am := a.(type) {
	case *sparse.CSR[float64]:
		if bm, ok := b.(*Bitmap[float64]); ok {
			return spGEMMBitmapPlusTimes(am, bm), true
		}
	case *sparse.CSR[float32]:
		if bm, ok := b.(*Bitmap[float32]); ok {
			return spGEMMBitmapPlusTimes(am, bm), true
		}
	case *sparse.CSR[int]:
		if bm, ok := b.(*Bitmap[int]); ok {
			return spGEMMBitmapPlusTimes(am, bm), true
		}
	case *sparse.CSR[int32]:
		if bm, ok := b.(*Bitmap[int32]); ok {
			return spGEMMBitmapPlusTimes(am, bm), true
		}
	case *sparse.CSR[int64]:
		if bm, ok := b.(*Bitmap[int64]); ok {
			return spGEMMBitmapPlusTimes(am, bm), true
		}
	}
	return nil, false
}
