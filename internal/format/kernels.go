package format

import (
	"math/bits"

	"graphblas/internal/faults"
	"graphblas/internal/parallel"
	"graphblas/internal/sparse"
)

// The multiply kernels over the bitmap layout. Each consults the
// fault-injection plan once at entry, before its parallel region, so an
// injected failure is raised deterministically on the dispatching goroutine
// and the core's retry can re-run the operation on the CSR kernels. They
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

// spGEMMBitmapPlusTimes multiplies A (CSR) by B (bitmap) over ⟨+,×⟩ into
// a bitmap: output structure is the word-level OR of the selected B rows and
// values accumulate in place in the dense row, with no sparse accumulator
// and no per-row sort. An output entry's first product is stored, later
// ones added — the fold sparse.SpGEMM does, in the same ascending-k order,
// so the two agree bit for bit; adding the first to the zeroed cell would
// turn a lone −0 product into +0.
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

// The dense product's rule. Below denseFill Gustavson's kernel, which
// touches only the cells the products reach, beats the dense rows; from it
// the dense product is the faster one (BenchmarkFillSweep_MxM, DESIGN.md
// §5). maxDenseCells caps the dense allocations (1<<27 cells is 1 GiB of
// float64 values).
const (
	denseFill     = 0.04
	maxDenseCells = 1 << 27
)

// DenseProductWins is the rule that picks the dense ⟨+,×⟩ product for
// C = A·B, A m×k and B k×n holding nnzB entries: B is at least denseFill
// full, and B and C each fit in maxDenseCells cells. O(1), read from the
// operands alone, like sparse.PullWins and sparse.DotMaskedWins.
func DenseProductWins(m, k, n, nnzB int) bool {
	if m <= 0 || k <= 0 || n <= 0 {
		return false
	}
	cells := uint64(k) * uint64(n)
	return cells <= maxDenseCells && uint64(m)*uint64(n) <= maxDenseCells &&
		float64(nnzB) >= denseFill*float64(cells)
}

// TryMxMPlusTimes runs the dense ⟨+,×⟩ product when the any-wrapped
// operands are CSR matrices A and B over one supported numeric domain: B
// is converted to a transient bitmap, multiplied into a bitmap, and the
// product returned as a *sparse.CSR of that domain. The caller has checked
// DenseProductWins and that the semiring is the predefined ⟨+,×⟩ (core
// reads the operators' opcodes).
func TryMxMPlusTimes(a, b any) (any, bool) {
	switch am := a.(type) {
	case *sparse.CSR[float64]:
		if bm, ok := b.(*sparse.CSR[float64]); ok {
			return denseProduct(am, bm), true
		}
	case *sparse.CSR[float32]:
		if bm, ok := b.(*sparse.CSR[float32]); ok {
			return denseProduct(am, bm), true
		}
	case *sparse.CSR[int]:
		if bm, ok := b.(*sparse.CSR[int]); ok {
			return denseProduct(am, bm), true
		}
	case *sparse.CSR[int32]:
		if bm, ok := b.(*sparse.CSR[int32]); ok {
			return denseProduct(am, bm), true
		}
	case *sparse.CSR[int64]:
		if bm, ok := b.(*sparse.CSR[int64]); ok {
			return denseProduct(am, bm), true
		}
	}
	return nil, false
}

// denseProduct is A·B over ⟨+,×⟩ through a bitmap B and a bitmap product.
func denseProduct[T Arith](a, b *sparse.CSR[T]) *sparse.CSR[T] {
	return spGEMMBitmapPlusTimes(a, BitmapFromCSR(b)).ToCSR()
}
