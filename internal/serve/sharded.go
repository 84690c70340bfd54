package serve

import (
	"context"
	"errors"
	"fmt"

	"graphblas/internal/shard"
	"graphblas/internal/stream"
)

// ErrIndeterminate: an ingest batch was partially applied — some shards
// committed their sub-batches, others failed and queued them for redo. The
// batch is NOT acknowledged; the store freezes reads at the last acknowledged
// composed snapshot and converges to containing the whole batch before
// anything newer commits. Handlers map it to 500 with
// X-Graphblas-Indeterminate so a client (and the chaos oracle) models the
// batch as "may appear in a later epoch" rather than "never happened".
var ErrIndeterminate = errors.New("serve: ingest not acknowledged; partial apply converging via redo")

// shardedBackend adapts the row-partitioned multi-engine store to the
// Backend interface, inheriting the full serving resilience ladder —
// admission, deadlines riding each shard engine's flush, retries, stale
// fallback — for scatter-gather execution.
type shardedBackend struct {
	st *shard.Store
}

// NewShardedBackend wraps a shard.Store as a serving backend.
func NewShardedBackend(st *shard.Store) Backend { return shardedBackend{st: st} }

func (b shardedBackend) View(ctx context.Context) (View, bool, error) {
	snap, stale, err := b.st.Snapshot(ctx)
	if snap == nil {
		return View{}, false, err
	}
	return View{snap}, stale, err
}

// Ingest routes the batch through the all-shards-or-none commit, translating
// the shard layer's sentinels into the serving taxonomy: backpressure and a
// redo-blocked writer are clean rejects (the batch was never applied
// anywhere, 503), a partial failure is indeterminate (500 + header).
func (b shardedBackend) Ingest(batch *stream.Batch[float64]) error {
	err := b.st.Ingest(batch)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, shard.ErrBackpressure), errors.Is(err, shard.ErrRedoBlocked):
		return fmt.Errorf("%w: %v", ErrBackpressure, err)
	case errors.Is(err, shard.ErrIndeterminate):
		return fmt.Errorf("%w: %v", ErrIndeterminate, err)
	}
	return err
}

func (b shardedBackend) N() int { return b.st.N() }

func (b shardedBackend) Shards() int { return b.st.ShardCount() }

func (b shardedBackend) Health() map[string]any {
	return map[string]any{
		"backend": "sharded",
		"shards":  b.st.Status(),
		"version": b.st.Version(),
		"frozen":  b.st.Frozen(),
		"redo":    b.st.RedoDepth(),
	}
}

func (b shardedBackend) Drain(ctx context.Context) error { return b.st.Drain(ctx) }
