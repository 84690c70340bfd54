package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"graphblas/internal/core"
	"graphblas/internal/stream"
)

// ErrBackpressure: some shard's delta overlay is over the shed watermark and
// could not be compacted; the batch was rejected untouched (clean reject —
// no shard absorbed anything). The serving layer maps it to 503.
var ErrBackpressure = errors.New("shard: ingest backpressure, shard delta overlay over watermark")

// ErrIndeterminate marks a batch that failed acknowledgement AFTER some
// shards committed their sub-batches: the failed sub-batches are queued for
// redo and the whole batch WILL be included in the store before any later
// batch is acknowledged. This is the honest at-least-once answer a
// distributed store owes its writer — "not acknowledged" is not "not
// applied" — and the serving layer surfaces it as a response header so a
// consistency checker can model the batch as indeterminate rather than
// absent.
var ErrIndeterminate = errors.New("shard: batch not acknowledged; failed sub-batches queued for redo")

// ErrRedoBlocked: an earlier partial failure is still draining and this
// batch was rejected before touching any shard (clean reject). Retry later.
var ErrRedoBlocked = errors.New("shard: redo backlog not drained; batch rejected untouched")

// Config sizes one sharded store.
type Config struct {
	// N is the global vertex-space dimension; Shards the partition width.
	N, Shards int
	// Strategy is the row→shard assignment (default Block).
	Strategy Strategy
	// CompactAfter is the per-shard delta watermark that triggers compaction
	// on the ingest path (0: the streaming DefaultPolicy watermark).
	CompactAfter int
	// ShedDelta is the per-shard delta count beyond which ingest is rejected
	// with ErrBackpressure (0: 4× CompactAfter).
	ShedDelta int
}

func (c Config) withDefaults() Config {
	if c.CompactAfter <= 0 {
		c.CompactAfter = stream.DefaultPolicy().MaxDeltaNNZ
	}
	if c.ShedDelta <= 0 {
		c.ShedDelta = 4 * c.CompactAfter
	}
	return c
}

// ingestAttempts bounds the per-shard at-least-once re-apply loop.
const ingestAttempts = 3

// snapshotAttempts bounds the optimistic torn-composition retry loop.
const snapshotAttempts = 3

// engineShard is one shard: an isolated execution engine owning the
// localRows×N slice of the adjacency whose global rows the plan assigns it.
type engineShard struct {
	id   int
	inst *core.Instance
	m    *core.Matrix[float64]
}

// Store is the row-partitioned multi-engine graph store. One coordinator
// (this type) routes writes and composes snapshots; each shard's engine
// schedules and flushes independently, so shard-level work is genuinely
// parallel and a deadline expiring inside one shard's flush cancels only
// that shard's pending operations.
type Store struct {
	plan Plan
	cfg  Config

	shards []*engineShard

	// wmu serializes writers (ingest, redo drain, compaction), exactly the
	// single-writer discipline that makes per-shard at-least-once re-apply
	// idempotent (see serve.Engine.wmu).
	wmu sync.Mutex
	// version counts acknowledged commits: a version advances only when every
	// owning shard has committed, so a composed snapshot keyed by version is
	// an all-shards-consistent state by construction.
	version atomic.Uint64
	// wseq is the writers' seqlock: odd while a shard-mutating write is in
	// flight. Snapshot composition pins each shard separately, so without
	// this a write landing mid-composition could produce a torn snapshot
	// (shard 0 pinned before the batch, shard 1 after).
	wseq atomic.Uint64

	mu     sync.Mutex
	cur    *Snapshot                // composed snapshot of the newest acknowledged version
	last   *Snapshot                // last good composed snapshot (stale fallback)
	frozen bool                     // a partial failure is outstanding; compose nothing new
	redo   []*stream.Batch[float64] // per-shard failed sub-batches awaiting redo
}

// NewStore builds a sharded store: cfg.Shards independent engine instances,
// each holding a LocalRows(s)×N streaming matrix with a manual merge policy
// (compaction is an explicit act of the coordinator, as in serve.Engine).
func NewStore(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	plan, err := NewPlan(cfg.N, cfg.Shards, cfg.Strategy)
	if err != nil {
		return nil, err
	}
	st := &Store{plan: plan, cfg: cfg, redo: make([]*stream.Batch[float64], cfg.Shards)}
	for s := 0; s < cfg.Shards; s++ {
		inst, err := core.NewInstance(core.NonBlocking)
		if err != nil {
			return nil, err
		}
		m, err := core.NewMatrixIn[float64](inst, plan.LocalRows(s), cfg.N)
		if err != nil {
			return nil, err
		}
		if _, err := m.SetMergePolicy(stream.Manual()); err != nil {
			return nil, err
		}
		st.shards = append(st.shards, &engineShard{id: s, inst: inst, m: m})
	}
	return st, nil
}

// Plan exposes the routing table.
func (st *Store) Plan() Plan { return st.plan }

// N reports the global vertex-space dimension.
func (st *Store) N() int { return st.cfg.N }

// ShardCount reports the partition width.
func (st *Store) ShardCount() int { return len(st.shards) }

// Version reports the newest acknowledged commit version.
func (st *Store) Version() uint64 { return st.version.Load() }

// Frozen reports whether a partial failure is outstanding (reads are pinned
// to the last acknowledged snapshot until the redo backlog drains).
func (st *Store) Frozen() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.frozen
}

// RedoDepth reports the number of shards with failed sub-batches queued.
func (st *Store) RedoDepth() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, b := range st.redo {
		if b != nil {
			n++
		}
	}
	return n
}

// ShardStatus is one shard's health line.
type ShardStatus struct {
	Shard int    `json:"shard"`
	Rows  int    `json:"rows"`
	Epoch uint64 `json:"epoch"`
	Delta int    `json:"delta"`
}

// Status reports per-shard health. Best-effort: a shard whose store is
// poisoned mid-recovery reports zero epoch/delta rather than failing the
// health probe.
func (st *Store) Status() []ShardStatus {
	out := make([]ShardStatus, len(st.shards))
	for i, sh := range st.shards {
		out[i] = ShardStatus{Shard: sh.id, Rows: st.plan.LocalRows(sh.id)}
		if ep, err := sh.m.EpochID(); err == nil {
			out[i].Epoch = ep
		}
		if d, err := sh.m.DeltaNVals(); err == nil {
			out[i].Delta = d
		}
	}
	return out
}

// transient mirrors the serving layer's retry taxonomy: execution-class
// failures (abandoned flush, poisoned input, OOM, kernel panic) are worth a
// fresh attempt; API-class errors are deterministic.
func transient(err error) bool {
	if err == nil {
		return false
	}
	switch core.InfoOf(err) {
	case core.Canceled, core.InvalidObject, core.OutOfMemory, core.PanicInfo:
		return true
	}
	return false
}

// Ingest applies one logical update batch across the owning shards with
// all-or-none acknowledgement: nil means every shard committed; a non-nil
// error means the batch was NOT acknowledged — wrapped in ErrIndeterminate
// when some shards committed (the rest queue for redo and the batch will
// converge in), or a clean-reject error (ErrBackpressure, ErrRedoBlocked,
// routing failure) when no shard was touched.
func (st *Store) Ingest(b *stream.Batch[float64]) error {
	st.wmu.Lock()
	defer st.wmu.Unlock()

	// An outstanding redo backlog drains before any new batch: later batches
	// must not be acknowledged ahead of an earlier batch's convergence, or
	// last-wins ordering across batches would invert.
	if err := st.drainRedoLocked(); err != nil {
		return fmt.Errorf("%w (drain: %v)", ErrRedoBlocked, err)
	}

	// Backpressure and watermark compaction, per shard.
	for _, sh := range st.shards {
		delta, err := sh.deltaNVals()
		if err != nil {
			return err
		}
		if delta >= st.cfg.ShedDelta {
			st.compactShardLocked(sh)
			if delta, err = sh.deltaNVals(); err != nil {
				return err
			}
			if delta >= st.cfg.ShedDelta {
				return ErrBackpressure
			}
		} else if delta >= st.cfg.CompactAfter {
			st.compactShardLocked(sh)
		}
	}

	// Route. A routing fault rejects the batch before any shard sees it.
	var subs []*stream.Batch[float64]
	if err := runKernel("shard.route", func() { subs = routeBatch(st.plan, b) }); err != nil {
		return err
	}

	return st.commitLocked(subs)
}

// commitLocked applies per-shard sub-batches concurrently — one goroutine
// per owning shard, each against its own engine — and acknowledges only if
// all commit. Caller holds wmu.
func (st *Store) commitLocked(subs []*stream.Batch[float64]) error {
	st.wseq.Add(1)
	defer st.wseq.Add(1)

	errs := make([]error, len(st.shards))
	var wg sync.WaitGroup
	for s, sub := range subs {
		if sub == nil || sub.Len() == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *engineShard, sub *stream.Batch[float64]) {
			defer wg.Done()
			errs[sh.id] = sh.apply(sub)
		}(st.shards[s], sub)
	}
	wg.Wait()

	var failed []int
	for s, err := range errs {
		if err != nil {
			failed = append(failed, s)
		}
	}
	if len(failed) == 0 {
		st.mu.Lock()
		st.frozen = false
		st.mu.Unlock()
		st.version.Add(1)
		return nil
	}

	// Partial failure: freeze reads at the last acknowledged snapshot and
	// queue the failed sub-batches, preserving program order within each
	// shard so redo keeps last-wins semantics.
	st.mu.Lock()
	st.frozen = true
	for _, s := range failed {
		st.redo[s] = appendBatch(st.redo[s], subs[s])
	}
	st.mu.Unlock()
	return fmt.Errorf("%w: %d/%d shards failed (first: shard %d: %v)",
		ErrIndeterminate, len(failed), len(st.shards), failed[0], errs[failed[0]])
}

// drainRedoLocked re-applies queued failed sub-batches. On full drain the
// store is shard-consistent again but stays frozen: the redone batches were
// never acknowledged, so they become visible only at the next acknowledged
// version (commit or compaction). Caller holds wmu.
func (st *Store) drainRedoLocked() error {
	st.mu.Lock()
	pending := append([]*stream.Batch[float64](nil), st.redo...)
	st.mu.Unlock()

	var anyPending bool
	for _, b := range pending {
		if b != nil {
			anyPending = true
		}
	}
	if !anyPending {
		return nil
	}

	st.wseq.Add(1)
	defer st.wseq.Add(1)
	var firstErr error
	for s, b := range pending {
		if b == nil {
			continue
		}
		if err := st.shards[s].apply(b); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", s, err)
			}
			continue
		}
		st.mu.Lock()
		st.redo[s] = nil
		st.mu.Unlock()
	}
	return firstErr
}

// apply commits one sub-batch to the shard with at-least-once semantics:
// a rolled-back absorb (abandoned flush, injected fault) is revalidated and
// the same last-wins batch re-applied. Mirrors serve.Engine.apply, scoped to
// this shard's engine.
func (sh *engineShard) apply(b *stream.Batch[float64]) error {
	var last error
	for attempt := 0; attempt < ingestAttempts; attempt++ {
		if attempt > 0 {
			if rerr := sh.m.Revalidate(); rerr != nil {
				return last
			}
		}
		err := sh.m.ApplyUpdateBatch(b)
		if err == nil {
			err = sh.m.Wait()
		}
		if err == nil {
			return nil
		}
		last = err
		if !transient(err) {
			return err
		}
	}
	return last
}

// deltaNVals reads the shard's overlay size, revalidating first when a prior
// failure left the store marked invalid (writer-exclusive recovery; caller
// holds wmu).
func (sh *engineShard) deltaNVals() (int, error) {
	delta, err := sh.m.DeltaNVals()
	if core.InfoOf(err) == core.InvalidObject {
		if rerr := sh.m.Revalidate(); rerr == nil {
			delta, err = sh.m.DeltaNVals()
		}
	}
	return delta, err
}

// compactShardLocked merges one shard's overlay into its main store,
// best-effort: a failed compaction leaves the overlay in place and the next
// watermark crossing retries. Caller holds wmu.
func (st *Store) compactShardLocked(sh *engineShard) {
	st.wseq.Add(1)
	defer st.wseq.Add(1)
	if err := sh.m.Compact(); err != nil {
		return
	}
	if err := sh.m.Wait(); err != nil {
		if core.InfoOf(err) != core.Canceled {
			//grblint:ignore swallowederr best-effort watermark compaction: the store is still valid with the overlay live, and the next crossing retries
			_ = sh.m.Revalidate()
		}
		return
	}
	st.version.Add(1)
}

// Compact forces every shard's overlay into its main store and publishes a
// new acknowledged version. Fails if a redo backlog cannot drain first.
func (st *Store) Compact() error {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	if err := st.drainRedoLocked(); err != nil {
		return fmt.Errorf("%w (drain: %v)", ErrRedoBlocked, err)
	}
	st.wseq.Add(1)
	defer st.wseq.Add(1)
	for _, sh := range st.shards {
		if err := sh.m.Compact(); err != nil {
			return err
		}
		if err := sh.m.Wait(); err != nil {
			return err
		}
	}
	st.mu.Lock()
	st.frozen = false
	st.mu.Unlock()
	st.version.Add(1)
	return nil
}

// appendBatch folds src's updates onto dst in program order (dst may be
// nil), preserving last-wins across the concatenation.
func appendBatch(dst, src *stream.Batch[float64]) *stream.Batch[float64] {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = stream.NewBatch[float64]()
	}
	src.Each(func(i, j int, v float64, del bool) {
		if del {
			dst.Delete(i, j)
		} else {
			dst.Insert(i, j, v)
		}
	})
	return dst
}

// Drain flushes every shard's pending work, bounded by ctx — the sharded
// half of graceful shutdown.
func (st *Store) Drain(ctx context.Context) error {
	var firstErr error
	for _, sh := range st.shards {
		if err := sh.inst.WaitContext(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
