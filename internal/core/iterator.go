package core

import "graphblas/internal/sparse"

// Entry iterators (a GxB_Iterator-style extension): stream the stored
// entries of a collection in order without materializing tuple arrays.
// Creating an iterator forces completion (it reads values out of the opaque
// object) and snapshots the storage: mutations made after creation do not
// affect an in-flight iteration, which therefore always sees a consistent
// state.

// MatrixIterator streams matrix entries in row-major order.
type MatrixIterator[D any] struct {
	data *sparse.CSR[D]
	row  int
	pos  int
}

// MatrixIterate returns an iterator over m's stored entries.
func MatrixIterate[D any](m *Matrix[D]) (*MatrixIterator[D], error) {
	const op = "MatrixIterate"
	if err := objOK(&m.obj, op, "m"); err != nil {
		return nil, err
	}
	if err := m.obj.engine().force(op); err != nil {
		return nil, err
	}
	if err := invalidMark(&m.obj, op); err != nil {
		return nil, err
	}
	return &MatrixIterator[D]{data: m.pin()}, nil
}

// Next returns the next entry; ok is false when iteration is complete.
func (it *MatrixIterator[D]) Next() (i, j int, v D, ok bool) {
	d := it.data
	for it.pos >= d.Ptr[it.row+1] {
		if it.row+1 >= d.NRows {
			var zero D
			return 0, 0, zero, false
		}
		it.row++
	}
	i, j, v = it.row, d.ColIdx[it.pos], d.Val[it.pos]
	it.pos++
	return i, j, v, true
}

// Seek positions the iterator at the start of the given row; subsequent
// Next calls stream that row onward.
func (it *MatrixIterator[D]) Seek(row int) error {
	if row < 0 || row >= it.data.NRows {
		return errf(InvalidIndex, "MatrixIterator.Seek", "row %d out of range [0,%d)", row, it.data.NRows)
	}
	it.row = row
	it.pos = it.data.Ptr[row]
	return nil
}

// VectorIterator streams vector entries in index order. It holds the
// store it was opened on until it has reported its end, and then hands it
// back to the vector, which recycles it if it no longer holds it itself.
type VectorIterator[D any] struct {
	v    *Vector[D]
	data *sparse.Vec[D]
	pos  int
}

// VectorIterate returns an iterator over v's stored entries.
func VectorIterate[D any](v *Vector[D]) (*VectorIterator[D], error) {
	const op = "VectorIterate"
	if err := objOK(&v.obj, op, "v"); err != nil {
		return nil, err
	}
	if err := v.obj.engine().force(op); err != nil {
		return nil, err
	}
	if err := invalidMark(&v.obj, op); err != nil {
		return nil, err
	}
	return &VectorIterator[D]{v: v, data: v.pin()}, nil
}

// Next returns the next entry; ok is false when iteration is complete, and
// from then on the iterator holds nothing.
func (it *VectorIterator[D]) Next() (i int, v D, ok bool) {
	if it.data == nil || it.pos >= len(it.data.Idx) {
		it.release()
		var zero D
		return 0, zero, false
	}
	i, v = it.data.Idx[it.pos], it.data.Val[it.pos]
	it.pos++
	return i, v, true
}

// release hands the iterator's store back to its vector, once.
func (it *VectorIterator[D]) release() {
	if it.data != nil {
		it.v.unpin(it.data)
		it.data = nil
	}
}

// MatrixForEach calls f for every stored entry of m in row-major order; a
// false return stops the iteration early. Convenience over MatrixIterate.
func MatrixForEach[D any](m *Matrix[D], f func(i, j int, v D) bool) error {
	it, err := MatrixIterate(m)
	if err != nil {
		return err
	}
	for {
		i, j, v, ok := it.Next()
		if !ok {
			return nil
		}
		if !f(i, j, v) {
			return nil
		}
	}
}

// VectorForEach calls f for every stored entry of v in index order; a false
// return stops the iteration early.
func VectorForEach[D any](v *Vector[D], f func(i int, x D) bool) error {
	it, err := VectorIterate(v)
	if err != nil {
		return err
	}
	for {
		i, x, ok := it.Next()
		if !ok {
			return nil
		}
		if !f(i, x) {
			it.release()
			return nil
		}
	}
}
