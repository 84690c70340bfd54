package core

import (
	"slices"
	"sync"

	"graphblas/internal/format"
	"graphblas/internal/sparse"
	"graphblas/internal/stream"
)

// Matrix is the opaque GraphBLAS matrix A = ⟨D, M, N, {(i, j, A_ij)}⟩ of
// Section III-A. Storage is compressed sparse row, the one layout a matrix
// holds; a transposed copy is cached lazily because the descriptor's
// GrB_TRAN setting (Figure 2) makes transposed reads common, and
// invalidated on any mutation.
type Matrix[D any] struct {
	obj
	// nr, nc are the logical dimensions. Resize rewrites them while enqueued
	// closures may still be running on flush workers, so deferred code must
	// read them through dims() and writes must hold mu. grblint:guarded
	nr, nc int
	data   *sparse.CSR[D]

	// pending buffers single-element updates (SetElement/RemoveElement) so
	// interleaved point updates cost O(1) amortized instead of O(nnz); they
	// merge into the compressed storage when the matrix is next read. mu
	// guards pending, data installation, and the transpose cache so
	// read-only sharing across goroutines stays safe.
	pending []sparse.Tuple[D]
	mu      sync.Mutex
	tcache  *sparse.CSR[D]

	// Streaming engine state. delta is the hypersparse overlay of absorbed
	// update batches layered over data; mcache is the lazily built merged
	// (data ⊕ delta) view readers consume while the overlay is live; deltaAge
	// counts batches absorbed since the last compaction and spolicy decides
	// when delta folds into data; epochID advances with every published
	// compaction, giving pinned epochs their identity. All guarded by mu,
	// and — like data — immutable once installed, so snapshots and pinned
	// epochs stay valid across later publications.
	delta    *format.HyperDelta[D]
	mcache   *sparse.CSR[D]
	deltaAge int
	epochID  uint64
	spolicy  stream.Policy

	// saved is the rollback slot of the operation writing the matrix now
	// (transactional): the stores it found, empty between operations.
	saved matStore[D]
}

// matStore is a matrix's committed store: the CSR, the buffered updates and
// the derived stores, every one immutable once installed.
type matStore[D any] struct {
	data, tcache, mcache *sparse.CSR[D]
	delta                *format.HyperDelta[D]
	deltaAge             int
	epochID              uint64
	pending              []sparse.Tuple[D]
}

// NewMatrix creates an nrows-by-ncols matrix (GrB_Matrix_new). Both
// dimensions must be positive.
func NewMatrix[D any](nrows, ncols int) (*Matrix[D], error) {
	if err := checkActive("NewMatrix"); err != nil {
		return nil, err
	}
	if nrows <= 0 || ncols <= 0 {
		return nil, errf(InvalidValue, "NewMatrix", "dimensions must be positive, got %dx%d", nrows, ncols)
	}
	m := &Matrix[D]{nr: nrows, nc: ncols, data: sparse.EmptyCSR[D](nrows, ncols)}
	m.initMatrix()
	return m, nil
}

// initMatrix stamps a fresh identity and registers the transactional
// store the executor uses to roll back a failed kernel. Every Matrix
// constructor funnels through here.
func (m *Matrix[D]) initMatrix() {
	m.initObj()
	m.tx = m
	m.spolicy = stream.DefaultPolicy()
}

// snapshot captures the committed store — the pointers to the CSR,
// buffered updates, and derived stores; all immutable once installed — for
// the operation about to write the matrix (transactional). The pending
// list is kept, not copied: it is only ever appended to, and clipping it
// to its length makes the next append after a restore reallocate, so the
// entries it holds never change. O(1), so taking one per operation — every
// SetElement takes one — is cheap.
func (m *Matrix[D]) snapshot() {
	m.mu.Lock()
	m.saved = matStore[D]{
		data: m.data, tcache: m.tcache, mcache: m.mcache,
		delta: m.delta, deltaAge: m.deltaAge, epochID: m.epochID,
		pending: m.pending[:len(m.pending):len(m.pending)],
	}
	m.mu.Unlock()
}

// settle ends the operation writing the matrix: a failed one gets the
// stores back, a committed one releases those it superseded
// (releaseLocked).
//
// Store lifetimes. Once the operation has committed, a captured CSR — the
// main store, the transpose, the merged view — is unreachable unless the
// matrix still holds it or a reader pinned it (PinEpoch, MatrixIterate):
// the rollback slot is the only other reference the engine keeps,
// operations ordered after this one read the new stores, an operation's
// mask view of the store ends with that operation, and no two stores share
// a matrix array (every kernel writes arrays of its own, and Transpose
// clones an input's store before C takes it). Such a dead store's Ptr,
// ColIdx and Val go back to the pool.
func (m *Matrix[D]) settle(committed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.saved
	m.saved = matStore[D]{}
	if committed {
		m.releaseLocked(old.data, old.tcache, old.mcache)
		return
	}
	m.data, m.tcache = old.data, old.tcache
	m.delta, m.mcache, m.deltaAge, m.epochID = old.delta, old.mcache, old.deltaAge, old.epochID
	m.pending = old.pending
}

// releaseLocked releases each of the stores old that the matrix no longer
// holds, once: the merged view is the main store itself when the overlay
// is empty. A pinned store gives nothing back (sparse.CSR.Release). The
// caller holds m.mu.
func (m *Matrix[D]) releaseLocked(old ...*sparse.CSR[D]) {
	for k, d := range old {
		if d == nil || d == m.data || d == m.tcache || d == m.mcache || slices.Contains(old[:k], d) {
			continue
		}
		if d.Release() {
			storesRecycled.Inc()
		}
	}
}

// dropDerivedLocked forgets every store derived from the primary one — the
// transpose and the merged delta view. The primary store is data, delta and
// pending; whatever changes any of them calls this after the change, so no
// mutator has to know which caches exist. The caller holds m.mu.
func (m *Matrix[D]) dropDerivedLocked() {
	m.tcache, m.mcache = nil, nil
}

// setData replaces the storage and drops buffered updates. All whole-object
// mutation paths funnel through here.
func (m *Matrix[D]) setData(d *sparse.CSR[D]) {
	m.mu.Lock()
	m.data = d
	m.pending = nil
	// A whole-object overwrite supersedes any streamed-but-uncompacted
	// updates; keeping the overlay would double-apply them to the new store.
	m.delta = nil
	m.deltaAge = 0
	m.dropDerivedLocked()
	m.mu.Unlock()
}

// flushPendingLocked merges buffered point updates into the storage; the
// caller holds m.mu. While a streaming overlay is live the updates fold into
// it instead of the main store — they were enqueued after the batches that
// built it, so layering them on top preserves program order, and the main
// store stays untouched for pinned epochs and the merge policy.
func (m *Matrix[D]) flushPendingLocked() {
	if len(m.pending) == 0 {
		return
	}
	if m.delta != nil {
		m.delta = format.MergeDeltas(m.delta, format.DeltaFromTuples(m.nr, m.nc, m.pending))
	} else {
		m.data = format.MergeDeltaCSR(m.data, format.DeltaFromTuples(m.nr, m.nc, m.pending))
	}
	m.pending = nil
	m.dropDerivedLocked()
}

// viewLocked returns the CSR content readers must see: the main store
// overlaid with the streaming delta. The merged form is cached in mcache
// until the next mutation; the main store itself is NOT compacted here —
// reads must not perturb the merge policy's accounting or the epoch
// protocol. The caller holds m.mu.
func (m *Matrix[D]) viewLocked() *sparse.CSR[D] {
	m.flushPendingLocked()
	if m.delta == nil {
		return m.data
	}
	if m.mcache == nil {
		m.mcache = format.MergeDeltaCSR(m.data, m.delta)
		fmtConversions.Add(1)
	}
	return m.mcache
}

// mdat returns the up-to-date CSR view, merging any buffered point updates
// and overlaying the streaming delta. Safe for concurrent readers.
func (m *Matrix[D]) mdat() *sparse.CSR[D] {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked()
}

// pin is mdat for a reader that keeps the store past the read: the store
// is marked so that neither superseding nor freeing the matrix releases it.
func (m *Matrix[D]) pin() *sparse.CSR[D] {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.viewLocked()
	d.Pin()
	return d
}

// transposed returns (computing and caching on first use) the CSR form of
// the matrix transpose. Safe for concurrent readers.
func (m *Matrix[D]) transposed() *sparse.CSR[D] {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.viewLocked()
	if m.tcache == nil {
		m.tcache = d.Transpose()
		transposeBuilds.Add(1)
	}
	return m.tcache
}

// mdatWithTranspose returns what mdat returns and, read under the same
// lock, that content's transpose if an earlier transposed read left it
// cached (nil otherwise); it never builds one. Every mutation drops the
// cache, so a non-nil transpose is current. The selection rules
// (sparse.Ring.PullWins, sparse.DotMaskedWins) count from it.
func (m *Matrix[D]) mdatWithTranspose() (d, t *sparse.CSR[D]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d = m.viewLocked()
	return d, m.tcache
}

// dims returns the logical dimensions under the object lock. Resize updates
// the metadata eagerly from the caller's goroutine while previously enqueued
// operations may still be executing on flush workers, so any read that can
// run concurrently with a user-side Resize — deferred closures, accessors —
// must go through here rather than touching m.nr/m.nc bare.
func (m *Matrix[D]) dims() (int, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nr, m.nc
}

// NRows reports the number of rows (GrB_Matrix_nrows); never forces.
func (m *Matrix[D]) NRows() (int, error) {
	if err := objOK(&m.obj, "Matrix.NRows", "m"); err != nil {
		return 0, err
	}
	nr, _ := m.dims()
	return nr, nil
}

// NCols reports the number of columns (GrB_Matrix_ncols); never forces.
func (m *Matrix[D]) NCols() (int, error) {
	if err := objOK(&m.obj, "Matrix.NCols", "m"); err != nil {
		return 0, err
	}
	_, nc := m.dims()
	return nc, nil
}

// NVals reports the number of stored elements (GrB_Matrix_nvals). Forces
// completion of the pending sequence.
func (m *Matrix[D]) NVals() (int, error) {
	if err := objOK(&m.obj, "Matrix.NVals", "m"); err != nil {
		return 0, err
	}
	if err := m.obj.engine().force("Matrix.NVals"); err != nil {
		return 0, err
	}
	if err := invalidMark(&m.obj, "Matrix.NVals"); err != nil {
		return 0, err
	}
	return m.mdat().NNZ(), nil
}

// Clear removes all stored elements (GrB_Matrix_clear). May defer.
func (m *Matrix[D]) Clear() error {
	if err := objOK(&m.obj, "Matrix.Clear", "m"); err != nil {
		return err
	}
	return enqueue(methodSpec("Matrix.Clear", &m.obj, nil, false), func() error {
		// Executes on a flush worker; read the dimensions under the lock in
		// case the user goroutine Resizes while the flush is in flight.
		nr, nc := m.dims()
		m.setData(sparse.EmptyCSR[D](nr, nc))
		return nil
	})
}

// Dup creates a new matrix with the same domain, dimensions, and content
// (GrB_Matrix_dup). The copy may defer.
func (m *Matrix[D]) Dup() (*Matrix[D], error) {
	if err := objOK(&m.obj, "Matrix.Dup", "m"); err != nil {
		return nil, err
	}
	w := &Matrix[D]{nr: m.nr, nc: m.nc, data: sparse.EmptyCSR[D](m.nr, m.nc)}
	w.initMatrix()
	w.obj.ctx = m.obj.ctx // the copy lives in the source's execution context
	m.mu.Lock()
	w.spolicy = m.spolicy
	m.mu.Unlock()
	err := enqueue(methodSpec("Matrix.Dup", &w.obj, &m.obj, false), func() error {
		w.setData(m.mdat().Clone())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Resize changes the dimensions, dropping out-of-range elements (spec 1.3
// extension). Metadata updates eagerly; the storage trim may defer.
func (m *Matrix[D]) Resize(nrows, ncols int) error {
	if err := objOK(&m.obj, "Matrix.Resize", "m"); err != nil {
		return err
	}
	if nrows <= 0 || ncols <= 0 {
		return errf(InvalidValue, "Matrix.Resize", "dimensions must be positive, got %dx%d", nrows, ncols)
	}
	// The metadata write is eager — NRows/NCols reflect the new shape
	// immediately, and a later rollback keeps it (only storage is restored) —
	// but it must happen under the object lock: deferred operations from
	// before this call may still be running on flush workers, and they read
	// the dimensions through dims().
	m.mu.Lock()
	m.nr, m.nc = nrows, ncols
	m.mu.Unlock()
	return enqueue(methodSpec("Matrix.Resize", &m.obj, nil, true), func() error {
		// Clone before trimming: the committed CSR must stay intact so the
		// executor's rollback restores the pre-Resize content on failure.
		d := m.mdat().Clone()
		d.Resize(nrows, ncols)
		m.setData(d)
		return nil
	})
}

// Build populates an empty matrix from coordinate arrays, combining
// duplicates with dup (GrB_Matrix_build; Figure 3 line 28). Non-opaque
// array inputs may not defer, so Build forces the pending sequence and
// executes immediately.
func (m *Matrix[D]) Build(rows, cols []int, values []D, dup BinaryOp[D, D, D]) error {
	const op = "Matrix.Build"
	if err := objOK(&m.obj, op, "m"); err != nil {
		return err
	}
	if err := checkTuples(op, m.nr, m.nc, rows, cols, values); err != nil {
		return err
	}
	if err := m.obj.engine().force(op); err != nil {
		return err
	}
	if err := invalidMark(&m.obj, op); err != nil {
		return err
	}
	if nnz := m.mdat().NNZ(); nnz != 0 {
		return errf(OutputNotEmpty, op, "matrix already has %d stored elements", nnz)
	}
	built, err := buildTuples(op, m.nr, m.nc, rows, cols, values, dup)
	if err != nil {
		return err
	}
	m.setData(built)
	return nil
}

// checkTuples validates Build's coordinate arrays against an nr×nc shape.
func checkTuples[D any](op string, nr, nc int, rows, cols []int, values []D) error {
	if len(rows) != len(cols) || len(rows) != len(values) {
		return errf(InvalidValue, op, "tuple arrays have unequal lengths %d/%d/%d", len(rows), len(cols), len(values))
	}
	for k := range rows {
		if rows[k] < 0 || rows[k] >= nr {
			return errf(InvalidIndex, op, "row index %d out of range [0,%d)", rows[k], nr)
		}
		if cols[k] < 0 || cols[k] >= nc {
			return errf(InvalidIndex, op, "column index %d out of range [0,%d)", cols[k], nc)
		}
	}
	return nil
}

// buildTuples is Build's kernel: the CSR of checked coordinate arrays,
// duplicates combined with dup.
func buildTuples[D any](op string, nr, nc int, rows, cols []int, values []D, dup BinaryOp[D, D, D]) (*sparse.CSR[D], error) {
	var dupF func(D, D) D
	if dup.Defined() {
		dupF = dup.F
	}
	built, ok := sparse.BuildCSR(nr, nc, rows, cols, values, dupF)
	if !ok {
		return nil, errf(InvalidValue, op, "duplicate index with no dup operator")
	}
	return built, nil
}

// SetElement stores x at (i, j) (GrB_Matrix_setElement). May defer.
func (m *Matrix[D]) SetElement(x D, i, j int) error {
	if err := objOK(&m.obj, "Matrix.SetElement", "m"); err != nil {
		return err
	}
	if i < 0 || i >= m.nr || j < 0 || j >= m.nc {
		return errf(InvalidIndex, "Matrix.SetElement", "(%d,%d) out of range %dx%d", i, j, m.nr, m.nc)
	}
	return enqueue(methodSpec("Matrix.SetElement", &m.obj, nil, true), func() error {
		m.mu.Lock()
		m.pending = append(m.pending, sparse.Tuple[D]{I: i, J: j, V: x})
		m.dropDerivedLocked()
		m.mu.Unlock()
		return nil
	})
}

// RemoveElement deletes the element at (i, j) if present
// (GrB_Matrix_removeElement).
func (m *Matrix[D]) RemoveElement(i, j int) error {
	if err := objOK(&m.obj, "Matrix.RemoveElement", "m"); err != nil {
		return err
	}
	if i < 0 || i >= m.nr || j < 0 || j >= m.nc {
		return errf(InvalidIndex, "Matrix.RemoveElement", "(%d,%d) out of range %dx%d", i, j, m.nr, m.nc)
	}
	return enqueue(methodSpec("Matrix.RemoveElement", &m.obj, nil, true), func() error {
		m.mu.Lock()
		m.pending = append(m.pending, sparse.Tuple[D]{I: i, J: j, Del: true})
		m.dropDerivedLocked()
		m.mu.Unlock()
		return nil
	})
}

// ExtractElement returns the element at (i, j) (GrB_Matrix_extractElement);
// absent elements return a NoValue error. Forces completion.
func (m *Matrix[D]) ExtractElement(i, j int) (D, error) {
	var zero D
	if err := objOK(&m.obj, "Matrix.ExtractElement", "m"); err != nil {
		return zero, err
	}
	if i < 0 || i >= m.nr || j < 0 || j >= m.nc {
		return zero, errf(InvalidIndex, "Matrix.ExtractElement", "(%d,%d) out of range %dx%d", i, j, m.nr, m.nc)
	}
	if err := m.obj.engine().force("Matrix.ExtractElement"); err != nil {
		return zero, err
	}
	if err := invalidMark(&m.obj, "Matrix.ExtractElement"); err != nil {
		return zero, err
	}
	if x, ok := m.mdat().Get(i, j); ok {
		return x, nil
	}
	return zero, errf(NoValue, "Matrix.ExtractElement", "no element stored at (%d,%d)", i, j)
}

// ExtractTuples copies the stored (row, col, value) triples out of the
// opaque object in row-major order (GrB_Matrix_extractTuples). Forces
// completion.
func (m *Matrix[D]) ExtractTuples() ([]int, []int, []D, error) {
	if err := objOK(&m.obj, "Matrix.ExtractTuples", "m"); err != nil {
		return nil, nil, nil, err
	}
	if err := m.obj.engine().force("Matrix.ExtractTuples"); err != nil {
		return nil, nil, nil, err
	}
	if err := invalidMark(&m.obj, "Matrix.ExtractTuples"); err != nil {
		return nil, nil, nil, err
	}
	is, js, vals := m.mdat().Tuples()
	return is, js, vals, nil
}

// Free destroys the matrix (GrB_free). Pending operations complete first.
// Its stores are released like superseded ones (settle), except
// those a reader pinned.
func (m *Matrix[D]) Free() error {
	if m == nil || !m.initialized {
		return nil
	}
	if err := m.obj.engine().force("Matrix.Free"); err != nil {
		return err
	}
	m.initialized = false
	m.mu.Lock()
	data, tcache, mcache := m.data, m.tcache, m.mcache
	m.data, m.delta, m.pending = nil, nil, nil
	m.dropDerivedLocked()
	m.releaseLocked(data, tcache, mcache)
	m.mu.Unlock()
	return nil
}
