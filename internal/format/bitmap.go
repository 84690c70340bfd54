package format

import (
	"math/bits"

	"graphblas/internal/faults"
	"graphblas/internal/parallel"
	"graphblas/internal/sparse"
)

// elemBytes is the per-element size estimate the allocation governor uses
// for generic value arrays: the dominant domains are 8-byte scalars, and an
// estimate only needs to be monotone in the true size to bound allocations.
const elemBytes = 8

// Bitmap is the dense matrix layout: a validity bitset (one bit per cell,
// row-major, 64 cells per word) over a full nrows×ncols value array. Stored
// elements cost one bit of structure each regardless of position, random
// access is O(1), and presence of 64 consecutive cells is tested with one
// word load — the property the dot-product kernels exploit by ANDing matrix
// and vector presence words. Absent cells hold the zero value of T but are
// undefined, as everywhere in the paper's model.
type Bitmap[T any] struct {
	NRows, NCols int
	// Words is the number of bitset words per row: ceil(NCols/64). Row i's
	// presence words are Bits[i*Words : (i+1)*Words]; its values are
	// Val[i*NCols : (i+1)*NCols].
	Words int
	Bits  []uint64
	Val   []T
	nvals int
}

// NewBitmap returns an empty nrows×ncols bitmap matrix. The dense form is
// the storage engine's largest allocation class, so it passes through the
// allocation-budget governor: an oversized request fails with an injected
// OutOfMemory before the allocation is attempted.
func NewBitmap[T any](nrows, ncols int) *Bitmap[T] {
	w := (ncols + 63) / 64
	faults.GovernAlloc("format.alloc.bitmap", int64(nrows)*int64(w)*8+int64(nrows)*int64(ncols)*elemBytes)
	return &Bitmap[T]{
		NRows: nrows, NCols: ncols, Words: w,
		Bits: make([]uint64, nrows*w),
		Val:  make([]T, nrows*ncols),
	}
}

// Dims reports the logical dimensions.
func (b *Bitmap[T]) Dims() (int, int) { return b.NRows, b.NCols }

// NNZ reports the number of stored elements.
func (b *Bitmap[T]) NNZ() int { return b.nvals }

// Kind reports BitmapKind.
func (b *Bitmap[T]) Kind() Kind { return BitmapKind }

// RowBits returns row i's presence words.
func (b *Bitmap[T]) RowBits(i int) []uint64 { return b.Bits[i*b.Words : (i+1)*b.Words] }

// RowVals returns row i's dense value slice.
func (b *Bitmap[T]) RowVals(i int) []T { return b.Val[i*b.NCols : (i+1)*b.NCols] }

// rowNNZ counts the stored elements of row i by popcount.
func (b *Bitmap[T]) rowNNZ(i int) int {
	n := 0
	for _, w := range b.RowBits(i) {
		n += bits.OnesCount64(w)
	}
	return n
}

// recount recomputes the cached element count; builders that write Bits
// directly call it once at the end instead of counting per Set.
func (b *Bitmap[T]) recount() {
	n := 0
	for _, w := range b.Bits {
		n += bits.OnesCount64(w)
	}
	b.nvals = n
}

// BitmapFromCSR converts a CSR matrix to the bitmap layout, row-parallel.
func BitmapFromCSR[T any](m *sparse.CSR[T]) *Bitmap[T] {
	b := NewBitmap[T](m.NRows, m.NCols)
	parallel.ForWeighted(m.NRows, m.Ptr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			idx, val := m.Row(i)
			rb := b.RowBits(i)
			rv := b.RowVals(i)
			for p, j := range idx {
				rb[j>>6] |= 1 << (uint(j) & 63)
				rv[j] = val[p]
			}
		}
	})
	b.nvals = m.NNZ()
	return b
}

// ToCSR converts back to the CSR layout: popcount pass for row pointers,
// then a parallel bit-scan fill.
func (b *Bitmap[T]) ToCSR() *sparse.CSR[T] {
	c := sparse.NewCSR[T](b.NRows, b.NCols)
	for i := 0; i < b.NRows; i++ {
		c.Ptr[i+1] = c.Ptr[i] + b.rowNNZ(i)
	}
	nnz := c.Ptr[b.NRows]
	c.ColIdx = make([]int, nnz)
	c.Val = make([]T, nnz)
	parallel.ForWeighted(b.NRows, c.Ptr, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := c.Ptr[i]
			rv := b.RowVals(i)
			for wi, w := range b.RowBits(i) {
				base := wi << 6
				for w != 0 {
					j := base + bits.TrailingZeros64(w)
					w &= w - 1
					c.ColIdx[p] = j
					c.Val[p] = rv[j]
					p++
				}
			}
		}
	})
	return c
}
