package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphblas/internal/core"
	"graphblas/internal/obs"
	"graphblas/internal/stream"
)

// Store-health counters. The names keep the serve prefix operators already
// scrape; the store counts them because it is where ingest sheds, the writer
// revalidates and the breaker trips, at any shard count.
var (
	IngestThrottled = obs.NewCounter("graphblas_serve_ingest_throttled_total",
		"Ingest batches rejected by delta-overlay backpressure.")
	StoreRecovered = obs.NewCounter("graphblas_serve_store_recovered_total",
		"Writer revalidations of the streaming store after an abandoned or failed absorb.")
	BreakerOpens = obs.NewCounter("graphblas_serve_breaker_opens_total",
		"Circuit-breaker transitions into the open state.")
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
	// CompactAfter is the per-shard delta watermark that triggers compaction
	// on the ingest path (0: the streaming DefaultPolicy watermark). Ingest
	// is rejected with ErrBackpressure once a shard's delta count reaches
	// four times CompactAfter (shedFactor).
	CompactAfter int
}

func (c Config) withDefaults() Config {
	if c.CompactAfter <= 0 {
		c.CompactAfter = stream.DefaultPolicy().MaxDeltaNNZ
	}
	return c
}

const (
	// shedFactor scales CompactAfter to the per-shard delta count at which
	// ingest sheds.
	shedFactor = 4
	// ingestAttempts bounds the per-shard at-least-once re-apply loop.
	ingestAttempts = 3
	// snapshotAttempts bounds the optimistic torn-composition retry loop.
	snapshotAttempts = 3
	// breakerThreshold consecutive compaction failures open the compaction
	// breaker; it probes again after breakerCooldown.
	breakerThreshold = 3
	breakerCooldown  = 250 * time.Millisecond
)

// engineShard is one shard: an isolated execution engine owning the
// localRows×N slice of the adjacency whose global rows the plan assigns it.
type engineShard struct {
	id   int
	inst *core.Instance
	m    *core.Matrix[float64]
}

// Store is the graph store: a row-partitioned set of streaming matrices, one
// engine instance each, of which the single engine is the one-shard case. One
// coordinator (this type) routes writes and composes snapshots; each shard's
// engine schedules and flushes independently, so shard-level work is
// genuinely parallel and a deadline expiring inside one shard's flush cancels
// only that shard's pending operations. The merge policy is manual:
// compaction is an explicit, breaker-supervised act of the coordinator, not a
// side effect buried in the ingest path.
type Store struct {
	plan Plan
	cfg  Config

	shards  []*engineShard
	breaker *Breaker

	// wmu serializes writers (ingest, redo drain, compaction). Single-writer
	// discipline is what makes the per-shard at-least-once recovery in apply
	// sound: between an absorb attempt and its acknowledgement no other batch
	// can interleave, so re-applying the same last-wins batch is idempotent.
	// It also makes recovery writer-exclusive — only the goroutine that knows
	// which batch may have been dropped may Revalidate a shard; a reader
	// clearing the mark could let the writer acknowledge a lost write.
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

// NewStore builds a store of cfg.Shards independent engine instances, each
// holding a LocalRows(s)×N streaming matrix with a manual merge policy.
func NewStore(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	plan, err := NewPlan(cfg.N, cfg.Shards)
	if err != nil {
		return nil, err
	}
	st := &Store{
		plan:    plan,
		cfg:     cfg,
		breaker: NewBreaker(breakerThreshold, breakerCooldown),
		redo:    make([]*stream.Batch[float64], cfg.Shards),
	}
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

// BreakerState names the compaction breaker's state ("closed", "open",
// "half-open") for health reporting.
func (st *Store) BreakerState() string { return st.breaker.State() }

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

// IsTransient classifies an engine error as worth retrying — the one taxonomy
// the writer's re-apply loop and the serving layer's Retrier share. It
// follows the engine's own recovery model: execution-class failures leave the
// output invalid but the system healthy — a fresh attempt against fresh
// output objects can succeed — while API-class errors (dimension mismatch,
// bad index, …) are deterministic and retrying them only burns the deadline.
//
//   - Canceled: a shared-queue flush was abandoned by some request's
//     deadline; the abandoned work may belong to a different request than
//     the one that timed out, so retrying is the designed recovery.
//   - InvalidObject: an input was poisoned by a concurrent failure; rebuilt
//     inputs on the next attempt are clean.
//   - OutOfMemory / Panic: the engine rolled the output back to its prior
//     committed state (PR 2's fault model); transient by construction.
func IsTransient(err error) bool {
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
// routing failure, every owning shard rolled back) when no shard holds any
// of it. A shard whose delta overlay is past the compaction watermark first
// gets a breaker-guarded compaction; past the shed watermark — the overlay
// has grown unmergeable faster than compaction can drain it — the batch is
// rejected so the writer throttles instead of burying the store.
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
	shed := shedFactor * st.cfg.CompactAfter
	for _, sh := range st.shards {
		delta, err := sh.deltaNVals()
		if err != nil {
			return err
		}
		if delta >= shed {
			// One last attempt before rejecting: the breaker may have cooled
			// down since the overlay crossed the lower watermark.
			st.compactShardLocked(sh)
			if delta, err = sh.deltaNVals(); err != nil {
				return err
			}
			if delta >= shed {
				IngestThrottled.Inc()
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
	touched := 0
	var wg sync.WaitGroup
	for s, sub := range subs {
		if sub == nil || sub.Len() == 0 {
			continue
		}
		touched++
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
	if len(failed) == touched {
		// Every owning shard rolled back to its prior committed content, so
		// no shard holds any of the batch: there is nothing to converge, and
		// the store is exactly as the last acknowledged version left it.
		return fmt.Errorf("shard %d: %w", failed[0], errs[failed[0]])
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

// apply commits one sub-batch to the shard with at-least-once semantics. A
// query's expired deadline can abandon the absorb (Canceled) or an injected
// fault can fail it — either way the shard rolls back to its prior committed
// content and is marked invalid. Batches are last-wins per edge, hence
// idempotent, so the writer revalidates the rolled-back shard and re-applies
// the same batch instead of losing a write it is about to acknowledge.
// Success is judged object-scoped (m.Wait), not by a sequence-wide flush
// error, which may belong to some query's op. Caller holds wmu.
func (sh *engineShard) apply(b *stream.Batch[float64]) error {
	var last error
	for attempt := 0; attempt < ingestAttempts; attempt++ {
		if attempt > 0 {
			if rerr := sh.m.Revalidate(); rerr != nil {
				return last
			}
			StoreRecovered.Inc()
		}
		err := sh.m.ApplyUpdateBatch(b)
		if err == nil {
			err = sh.m.Wait()
		}
		if err == nil {
			return nil
		}
		last = err
		if !IsTransient(err) {
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
			StoreRecovered.Inc()
			delta, err = sh.m.DeltaNVals()
		}
	}
	return delta, err
}

// compactShardLocked merges one shard's overlay into its main store under
// the breaker, best-effort: a failed compaction leaves the overlay in place
// and the next watermark crossing retries, unless enough of them failed in a
// row to open the breaker. A flush abandoned by some request's deadline
// (Canceled) is not evidence the compactor is broken, so only real execution
// failures feed the breaker. Caller holds wmu.
func (st *Store) compactShardLocked(sh *engineShard) {
	if !st.breaker.Allow() {
		return
	}
	st.wseq.Add(1)
	defer st.wseq.Add(1)
	err := sh.m.Compact()
	if err == nil {
		err = sh.m.Wait()
	}
	if core.InfoOf(err) == core.Canceled {
		return
	}
	if err == nil {
		st.version.Add(1)
	} else {
		//grblint:ignore swallowederr best-effort watermark compaction: the store is still valid with the overlay live, and the next crossing retries
		_ = sh.m.Revalidate()
	}
	st.breaker.Record(err)
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

// Drain flushes the coordinator's and every shard's pending work, bounded by
// ctx — the store's half of graceful shutdown.
func (st *Store) Drain(ctx context.Context) error {
	firstErr := core.WaitContext(ctx)
	for _, sh := range st.shards {
		if err := sh.inst.WaitContext(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
