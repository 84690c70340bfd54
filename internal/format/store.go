package format

import "graphblas/internal/sparse"

// Store is the common surface of the three matrix layouts, for code that
// converts between them.
type Store[T any] interface {
	Kind() Kind
	Dims() (nrows, ncols int)
	NNZ() int
	ToCSR() *sparse.CSR[T]
}

// CSRStore adapts sparse.CSR to the Store interface.
type CSRStore[T any] struct{ M *sparse.CSR[T] }

// Kind reports CSRKind.
func (s CSRStore[T]) Kind() Kind { return CSRKind }

// Dims reports the logical dimensions.
func (s CSRStore[T]) Dims() (int, int) { return s.M.NRows, s.M.NCols }

// NNZ reports the number of stored elements.
func (s CSRStore[T]) NNZ() int { return s.M.NNZ() }

// ToCSR returns the wrapped matrix itself.
func (s CSRStore[T]) ToCSR() *sparse.CSR[T] { return s.M }

// Wrap presents a CSR matrix as a Store.
func Wrap[T any](m *sparse.CSR[T]) Store[T] { return CSRStore[T]{M: m} }

// Convert re-materializes s in the layout k, through its CSR form.
// Converting to the layout s already has, or to Auto, returns s unchanged.
func Convert[T any](s Store[T], k Kind) Store[T] {
	if k == Auto || k == s.Kind() {
		return s
	}
	switch k {
	case BitmapKind:
		return BitmapFromCSR(s.ToCSR())
	case HyperKind:
		return HyperFromCSR(s.ToCSR())
	default:
		return Wrap(s.ToCSR())
	}
}
