package format

import (
	"graphblas/internal/faults"
	"graphblas/internal/sparse"
)

// Hyper is the hypersparse (doubly-compressed) matrix layout: only rows that
// hold at least one element are represented. Rows lists them in increasing
// order; row Rows[k] occupies ColIdx/Val[Ptr[k]:Ptr[k+1]], columns strictly
// increasing. For a matrix with e non-empty rows the structure costs
// O(e + nnz) regardless of nrows, where CSR pays O(nrows + nnz) — the
// difference that matters for nearly-empty iteration frontiers.
type Hyper[T any] struct {
	NRows, NCols int
	Rows         []int // non-empty row ids, strictly increasing
	Ptr          []int // len(Rows)+1 offsets into ColIdx/Val
	ColIdx       []int
	Val          []T
}

// Dims reports the logical dimensions.
func (h *Hyper[T]) Dims() (int, int) { return h.NRows, h.NCols }

// NNZ reports the number of stored elements.
func (h *Hyper[T]) NNZ() int { return h.Ptr[len(h.Rows)] }

// Kind reports HyperKind.
func (h *Hyper[T]) Kind() Kind { return HyperKind }

// HyperFromCSR converts a CSR matrix to the hypersparse layout. The payload
// arrays are shared with m (CSR stores them contiguously already); only the
// row structure is recompressed, so the conversion is O(nrows).
func HyperFromCSR[T any](m *sparse.CSR[T]) *Hyper[T] {
	faults.GovernAlloc("format.alloc.hyper", int64(m.NRows)*16)
	h := &Hyper[T]{NRows: m.NRows, NCols: m.NCols, ColIdx: m.ColIdx, Val: m.Val}
	for i := 0; i < m.NRows; i++ {
		if m.Ptr[i] < m.Ptr[i+1] {
			h.Rows = append(h.Rows, i)
		}
	}
	h.Ptr = make([]int, len(h.Rows)+1)
	for k, i := range h.Rows {
		h.Ptr[k] = m.Ptr[i]
	}
	h.Ptr[len(h.Rows)] = m.NNZ()
	return h
}

// ToCSR converts back to the CSR layout, re-expanding the row pointers. The
// payload arrays are shared with h.
func (h *Hyper[T]) ToCSR() *sparse.CSR[T] {
	c := &sparse.CSR[T]{NRows: h.NRows, NCols: h.NCols, Ptr: make([]int, h.NRows+1), ColIdx: h.ColIdx, Val: h.Val}
	k := 0
	for i := 0; i < h.NRows; i++ {
		if k < len(h.Rows) && h.Rows[k] == i {
			c.Ptr[i+1] = h.Ptr[k+1]
			k++
		} else {
			c.Ptr[i+1] = c.Ptr[i]
		}
	}
	return c
}
