package core

// Streaming graph engine: atomic batched edge updates (GxB-style extension).
// An update batch enters the nonblocking queue as an ordinary writer node on
// its target matrix — hazard edges order it after queued readers of the old
// content and before readers enqueued later, the executor's transactional
// snapshot makes it atomic under kernel faults, and absorption lands in a
// hypersparse delta overlay so ingestion never pays O(main store) per batch.
// The size/age merge policy compacts the overlay into the main store,
// publishing a new epoch; PinEpoch hands out immutable snapshot views that
// survive those publications.

import (
	"graphblas/internal/format"
	"graphblas/internal/obs"
	"graphblas/internal/stream"
)

// ApplyUpdateBatch applies the batch's edge inserts and deletes to the
// matrix as one atomic, hazard-ordered operation. The batch is sealed
// (validated and deduplicated last-wins) against the current dimensions at
// call time; the builder may be reused immediately. May defer.
func (m *Matrix[D]) ApplyUpdateBatch(b *stream.Batch[D]) error {
	const op = "Matrix.ApplyUpdateBatch"
	if err := objOK(&m.obj, op, "m"); err != nil {
		return err
	}
	if b == nil {
		return errf(InvalidValue, op, "nil update batch")
	}
	nr, nc := m.dims()
	d, err := b.Seal(nr, nc)
	if err != nil {
		return errf(InvalidIndex, op, "%v", err)
	}
	if d.NNZ() == 0 {
		return nil
	}
	return enqueue(methodSpec(op, &m.obj, nil, true), func() error {
		m.absorbDelta(d)
		return nil
	})
}

// absorbDelta layers a sealed batch over the matrix's streaming overlay and
// lets the merge policy decide whether to compact. Runs on a flush worker
// inside the executor's snapshot, so a fault panic from the stream kernels
// unwinds into a full rollback of every field touched here.
func (m *Matrix[D]) absorbDelta(d *format.HyperDelta[D]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Point updates buffered before this batch must land first; fold them
	// into an overlay (creating one if none is live) rather than the main
	// store, so the batch path keeps its O(touched rows) cost.
	if len(m.pending) > 0 {
		p := format.DeltaFromTuples(m.nr, m.nc, m.pending)
		m.pending = nil
		m.delta = format.MergeDeltas(m.delta, p)
	}
	m.delta = stream.Absorb(m.delta, d)
	m.deltaAge++
	m.dropDerivedLocked()
	obs.StreamBatches.Inc()
	obs.StreamEdges.Add(int64(d.NNZ()))
	obs.StreamDeltaNNZ.Set(int64(m.delta.NNZ()))
	if m.spolicy.Due(m.delta.NNZ(), m.deltaAge) {
		m.compactLocked()
	}
}

// compactLocked publishes a new epoch: the overlay merges into the main
// store and the overlay empties. The caller holds m.mu. No-op when no
// overlay is live.
func (m *Matrix[D]) compactLocked() {
	if m.delta == nil {
		return
	}
	merged := stream.Compact(m.data, m.delta)
	m.data = merged
	m.delta = nil
	m.dropDerivedLocked()
	m.deltaAge = 0
	m.epochID++
	obs.StreamMerges.Inc()
	obs.StreamMergeBytes.Add(merged.ApproxBytes())
	obs.StreamEpochs.Inc()
	obs.StreamDeltaNNZ.Set(0)
}

// Compact forces the streaming overlay into the main store regardless of the
// merge policy, publishing a new epoch. May defer; a no-op when no overlay
// is live.
func (m *Matrix[D]) Compact() error {
	const op = "Matrix.Compact"
	if err := objOK(&m.obj, op, "m"); err != nil {
		return err
	}
	return enqueue(methodSpec(op, &m.obj, nil, true), func() error {
		m.compactNow()
		return nil
	})
}

// compactNow is Compact's deferred body.
func (m *Matrix[D]) compactNow() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushPendingLocked()
	m.compactLocked()
}

// SetMergePolicy installs the size/age policy governing when absorbed
// batches compact into the main store, returning the previous policy. The
// zero Policy disables automatic compaction (explicit Compact only).
func (m *Matrix[D]) SetMergePolicy(p stream.Policy) (stream.Policy, error) {
	if err := objOK(&m.obj, "Matrix.SetMergePolicy", "m"); err != nil {
		return stream.Policy{}, err
	}
	m.mu.Lock()
	prev := m.spolicy
	m.spolicy = p
	m.mu.Unlock()
	return prev, nil
}

// PinEpoch returns a snapshot-isolated read view of the matrix: the current
// (main, delta) pair, pinned. Later batches, merges, and point updates
// publish fresh stores and never mutate pinned ones, so the epoch keeps
// serving exactly this content without copying; the main store is marked
// so that superseding it never releases its arrays (Matrix.settle). Forces
// completion so the snapshot reflects the whole enqueued sequence.
func (m *Matrix[D]) PinEpoch() (*stream.Epoch[D], error) {
	const op = "Matrix.PinEpoch"
	if err := objOK(&m.obj, op, "m"); err != nil {
		return nil, err
	}
	if err := m.obj.engine().force(op); err != nil {
		return nil, err
	}
	if err := invalidMark(&m.obj, op); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushPendingLocked()
	m.data.Pin()
	return stream.NewEpoch(m.epochID, m.data, m.delta), nil
}

// DeltaNVals reports how many updates the streaming overlay currently holds
// (zero when fully compacted). Forces completion.
func (m *Matrix[D]) DeltaNVals() (int, error) {
	const op = "Matrix.DeltaNVals"
	if err := objOK(&m.obj, op, "m"); err != nil {
		return 0, err
	}
	if err := m.obj.engine().force(op); err != nil {
		return 0, err
	}
	if err := invalidMark(&m.obj, op); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delta.NNZ(), nil
}

// EpochID reports the matrix's current compaction epoch; it advances once
// per published merge. Forces completion.
func (m *Matrix[D]) EpochID() (uint64, error) {
	const op = "Matrix.EpochID"
	if err := objOK(&m.obj, op, "m"); err != nil {
		return 0, err
	}
	if err := m.obj.engine().force(op); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epochID, nil
}
