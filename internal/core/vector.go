package core

import (
	"sync"

	"graphblas/internal/sparse"
)

// Vector is the opaque GraphBLAS vector v = ⟨D, N, {(i, v_i)}⟩ of Section
// III-A: a domain D, a size N > 0, and a set of stored (index, value)
// tuples. Elements that are not stored are undefined — not implicit zeros —
// which is what lets the semiring change between operations without
// reinterpreting the stored data.
//
// Vectors are not safe for concurrent mutation; the paper's execution model
// permits sharing between threads only for read-only objects.
type Vector[D any] struct {
	obj
	// n is the logical size. Resize rewrites it while enqueued closures may
	// still be running on flush workers, so deferred code must read it
	// through size() and writes must hold mu. grblint:guarded
	n    int
	data *sparse.Vec[D]

	// pending buffers single-element updates; see Matrix.pending.
	pending []sparse.Tuple[D]
	// pinned is the last store handed to a reader that keeps it beyond the
	// operation that read it (an iterator). It is never recycled.
	pinned *sparse.Vec[D]
	// saved is the rollback slot of the operation writing the vector now
	// (transactional): the store it found, empty between operations.
	saved vecStore[D]
	mu    sync.Mutex
}

// vecStore is a vector's committed store: its values and its buffered
// point updates.
type vecStore[D any] struct {
	data    *sparse.Vec[D]
	pending []sparse.Tuple[D]
}

// setVData replaces the storage and drops buffered updates.
func (v *Vector[D]) setVData(d *sparse.Vec[D]) {
	v.mu.Lock()
	v.data = d
	v.pending = nil
	v.mu.Unlock()
}

// vdat returns the up-to-date storage, merging buffered point updates
// first. Safe for concurrent readers.
func (v *Vector[D]) vdat() *sparse.Vec[D] {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.vdatLocked()
}

func (v *Vector[D]) vdatLocked() *sparse.Vec[D] {
	if len(v.pending) > 0 {
		v.data = sparse.ApplyVecTuples(v.data, v.pending)
		v.pending = nil
	}
	return v.data
}

// pin is vdat for a reader that keeps the store past the read: the store
// is marked so that superseding it never recycles its values.
func (v *Vector[D]) pin() *sparse.Vec[D] {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.pinned = v.vdatLocked()
	return v.pinned
}

// initVector stamps a fresh identity and registers the transactional
// store; see Matrix.initMatrix.
func (v *Vector[D]) initVector() {
	v.initObj()
	v.tx = v
}

// snapshot captures the vector's committed store for the operation about
// to write it (transactional). The pending list is kept, as
// Matrix.snapshot keeps it.
func (v *Vector[D]) snapshot() {
	v.mu.Lock()
	v.saved = vecStore[D]{v.data, v.pending[:len(v.pending):len(v.pending)]}
	v.mu.Unlock()
}

// settle ends the operation writing the vector: a failed one gets the
// store back (see Matrix.settle); a committed one recycles it.
//
// Store lifetimes. When the operation has committed, the captured store is
// unreachable unless it is still the vector's own (the operation kept it)
// or pinned by an iterator: the rollback slot is the only other reference
// the engine keeps, operations ordered after this one read the new store,
// and every kernel writes a Val of its own — no two stores share one. Such
// a dead store is released: its Val goes back to the pool, and its hold on
// its Idx, which other stores may share, is dropped — the list goes back
// once the last store holding it is released (sparse emit.go).
func (v *Vector[D]) settle(committed bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.saved
	v.saved = vecStore[D]{}
	if !committed {
		v.data, v.pending = old.data, old.pending
		return
	}
	if old.data != v.data && old.data != v.pinned && old.data.Release() {
		storesRecycled.Inc()
	}
}

// NewVector creates a vector of size n (GrB_Vector_new). n must be
// positive.
func NewVector[D any](n int) (*Vector[D], error) {
	if err := checkActive("NewVector"); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, errf(InvalidValue, "NewVector", "size must be positive, got %d", n)
	}
	v := &Vector[D]{n: n, data: sparse.NewVec[D](n)}
	v.initVector()
	return v, nil
}

// size returns the logical size under the object lock; see Matrix.dims for
// why concurrent readers must not touch v.n bare.
func (v *Vector[D]) size() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.n
}

// Size reports the vector's size N (GrB_Vector_size). Dimension metadata is
// maintained eagerly, so this never forces pending operations.
func (v *Vector[D]) Size() (int, error) {
	if err := objOK(&v.obj, "Vector.Size", "v"); err != nil {
		return 0, err
	}
	return v.size(), nil
}

// NVals reports the number of stored elements (GrB_Vector_nvals). Reading a
// value out of an opaque object forces completion of the pending sequence.
func (v *Vector[D]) NVals() (int, error) {
	if err := objOK(&v.obj, "Vector.NVals", "v"); err != nil {
		return 0, err
	}
	if err := v.obj.engine().force("Vector.NVals"); err != nil {
		return 0, err
	}
	if err := invalidMark(&v.obj, "Vector.NVals"); err != nil {
		return 0, err
	}
	return v.vdat().NVals(), nil
}

// Clear removes all stored elements (GrB_Vector_clear). May defer.
func (v *Vector[D]) Clear() error {
	if err := objOK(&v.obj, "Vector.Clear", "v"); err != nil {
		return err
	}
	return enqueue(methodSpec("Vector.Clear", &v.obj, nil, false), func() error {
		// Executes on a flush worker; read the size under the lock in case
		// the user goroutine Resizes while the flush is in flight.
		v.setVData(sparse.NewVec[D](v.size()))
		return nil
	})
}

// Dup creates a new vector with the same domain, size, and content
// (GrB_Vector_dup). The copy itself may defer.
func (v *Vector[D]) Dup() (*Vector[D], error) {
	if err := objOK(&v.obj, "Vector.Dup", "v"); err != nil {
		return nil, err
	}
	w := &Vector[D]{n: v.n, data: sparse.NewVec[D](v.n)}
	w.initVector()
	w.obj.ctx = v.obj.ctx // the copy lives in the source's execution context
	err := enqueue(methodSpec("Vector.Dup", &w.obj, &v.obj, false), func() error {
		w.setVData(v.vdat().Clone())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Resize changes the size of the vector, dropping elements at indices >= n
// (spec 1.3 extension). Dimension metadata updates eagerly; the storage trim
// may defer.
func (v *Vector[D]) Resize(n int) error {
	if err := objOK(&v.obj, "Vector.Resize", "v"); err != nil {
		return err
	}
	if n <= 0 {
		return errf(InvalidValue, "Vector.Resize", "size must be positive, got %d", n)
	}
	// Eager metadata update, but under the object lock: deferred operations
	// from before this call may still be running on flush workers and read
	// the size through size(). Rollback semantics are unchanged — a failed
	// trim restores storage only, the new size stays.
	v.mu.Lock()
	v.n = n
	v.mu.Unlock()
	return enqueue(methodSpec("Vector.Resize", &v.obj, nil, true), func() error {
		// Clone before trimming so rollback can restore the committed store.
		d := v.vdat().Clone()
		d.Resize(n)
		v.setVData(d)
		return nil
	})
}

// Build populates an empty vector from index/value arrays, combining
// duplicates with dup (GrB_Vector_build). Per the execution model, a method
// whose inputs are non-opaque arrays may not defer, so Build forces the
// pending sequence and executes immediately. If dup is not defined,
// duplicate indices are an InvalidValue error.
func (v *Vector[D]) Build(indices []int, values []D, dup BinaryOp[D, D, D]) error {
	const op = "Vector.Build"
	if err := objOK(&v.obj, op, "v"); err != nil {
		return err
	}
	if len(indices) != len(values) {
		return errf(InvalidValue, op, "len(indices)=%d != len(values)=%d", len(indices), len(values))
	}
	for _, i := range indices {
		if i < 0 || i >= v.n {
			return errf(InvalidIndex, op, "index %d out of range [0,%d)", i, v.n)
		}
	}
	if err := v.obj.engine().force(op); err != nil {
		return err
	}
	if err := invalidMark(&v.obj, op); err != nil {
		return err
	}
	if nnz := v.vdat().NVals(); nnz != 0 {
		return errf(OutputNotEmpty, op, "vector already has %d stored elements", nnz)
	}
	var dupF func(D, D) D
	if dup.Defined() {
		dupF = dup.F
	}
	built, ok := sparse.BuildVec(v.n, indices, values, dupF)
	if !ok {
		return errf(InvalidValue, op, "duplicate index with no dup operator")
	}
	v.setVData(built)
	return nil
}

// SetElement stores x at index i (GrB_Vector_setElement). Scalar inputs may
// defer.
func (v *Vector[D]) SetElement(x D, i int) error {
	if err := objOK(&v.obj, "Vector.SetElement", "v"); err != nil {
		return err
	}
	if i < 0 || i >= v.n {
		return errf(InvalidIndex, "Vector.SetElement", "index %d out of range [0,%d)", i, v.n)
	}
	return enqueue(methodSpec("Vector.SetElement", &v.obj, nil, true), func() error {
		v.mu.Lock()
		v.pending = append(v.pending, sparse.Tuple[D]{I: i, V: x})
		v.mu.Unlock()
		return nil
	})
}

// RemoveElement deletes the element at index i if present
// (GrB_Vector_removeElement).
func (v *Vector[D]) RemoveElement(i int) error {
	if err := objOK(&v.obj, "Vector.RemoveElement", "v"); err != nil {
		return err
	}
	if i < 0 || i >= v.n {
		return errf(InvalidIndex, "Vector.RemoveElement", "index %d out of range [0,%d)", i, v.n)
	}
	return enqueue(methodSpec("Vector.RemoveElement", &v.obj, nil, true), func() error {
		v.mu.Lock()
		v.pending = append(v.pending, sparse.Tuple[D]{I: i, Del: true})
		v.mu.Unlock()
		return nil
	})
}

// ExtractElement returns the element at index i (GrB_Vector_extractElement).
// Absent elements return a NoValue error. Forces completion.
func (v *Vector[D]) ExtractElement(i int) (D, error) {
	var zero D
	if err := objOK(&v.obj, "Vector.ExtractElement", "v"); err != nil {
		return zero, err
	}
	if i < 0 || i >= v.n {
		return zero, errf(InvalidIndex, "Vector.ExtractElement", "index %d out of range [0,%d)", i, v.n)
	}
	if err := v.obj.engine().force("Vector.ExtractElement"); err != nil {
		return zero, err
	}
	if err := invalidMark(&v.obj, "Vector.ExtractElement"); err != nil {
		return zero, err
	}
	if x, ok := v.vdat().Get(i); ok {
		return x, nil
	}
	return zero, errf(NoValue, "Vector.ExtractElement", "no element stored at index %d", i)
}

// ExtractTuples copies the stored (index, value) pairs out of the opaque
// object in index order (GrB_Vector_extractTuples). Forces completion.
func (v *Vector[D]) ExtractTuples() ([]int, []D, error) {
	if err := objOK(&v.obj, "Vector.ExtractTuples", "v"); err != nil {
		return nil, nil, err
	}
	if err := v.obj.engine().force("Vector.ExtractTuples"); err != nil {
		return nil, nil, err
	}
	if err := invalidMark(&v.obj, "Vector.ExtractTuples"); err != nil {
		return nil, nil, err
	}
	idx, val := v.vdat().Tuples()
	return idx, val, nil
}

// Free destroys the vector (GrB_free). Pending operations involving it
// complete first; afterwards any use returns UninitializedObject. Its store
// is released like a superseded one (settle) unless an iterator
// pinned it.
func (v *Vector[D]) Free() error {
	if v == nil || !v.initialized {
		return nil // freeing an uninitialized object is a no-op, as in C
	}
	if err := v.obj.engine().force("Vector.Free"); err != nil {
		return err
	}
	v.initialized = false
	v.mu.Lock()
	if v.data != v.pinned && v.data.Release() {
		storesRecycled.Inc()
	}
	v.data, v.pending = nil, nil
	v.mu.Unlock()
	return nil
}
