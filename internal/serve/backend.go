package serve

import (
	"context"
	"errors"
	"fmt"

	"graphblas/internal/shard"
	"graphblas/internal/stream"
)

// The serving layer's ingest taxonomy is the store's own. ErrBackpressure is
// a clean reject — no shard absorbed anything, the writer should back off —
// mapped to 503 with Retry-After. ErrIndeterminate is a partial apply
// converging via redo, mapped to 500 with X-Graphblas-Indeterminate so a
// client (and the chaos oracle) models the batch as "may appear in a later
// epoch" rather than "never happened".
var (
	ErrBackpressure  = shard.ErrBackpressure
	ErrIndeterminate = shard.ErrIndeterminate
)

// Backend adapts the graph store to the HTTP layer. The handler spine —
// admission, deadlines, retries, degradation — and the queries themselves do
// not know the shard count: any deployment inherits the whole resilience
// ladder, with the scatter-gather fan-out (when there is more than one shard)
// hidden behind the view's VxM.
type Backend struct {
	st *shard.Store
}

// NewShardedBackend wraps a store as the serving backend.
func NewShardedBackend(st *shard.Store) Backend { return Backend{st: st} }

// Config, NewEngine and NewEngineBackend are the one-shard spelling of
// shard.Config, shard.NewStore and NewShardedBackend, kept because the
// benchmark of record builds its serve-read workload through these names; a
// later benchmark PR may drop them.
type Config = shard.Config

// NewEngine builds a one-shard store (see Config).
func NewEngine(cfg Config) (*shard.Store, error) {
	cfg.Shards = 1
	return shard.NewStore(cfg)
}

// NewEngineBackend is NewShardedBackend (see Config).
func NewEngineBackend(st *shard.Store) Backend { return NewShardedBackend(st) }

// View is one pinned, immutable read view: every query a request can ask
// (KHop, PPRTopK, Stats, Degree — query.go), answered at a single
// acknowledged version of the store.
type View struct{ g *shard.Snapshot }

// Epoch is the consistency token responses carry in X-Graphblas-Epoch.
func (v View) Epoch() uint64 { return v.g.Epoch() }

// View pins one consistent read view. The bool reports staleness — the store
// degraded to its last good snapshot instead of failing.
func (b Backend) View(ctx context.Context) (View, bool, error) {
	snap, stale, err := b.st.Snapshot(ctx)
	if snap == nil {
		return View{}, false, err
	}
	return View{snap}, stale, err
}

// Ingest applies one sealed update batch through the all-shards-or-none
// commit. A writer blocked behind a draining redo backlog is, like
// backpressure, a clean reject to retry later (503).
func (b Backend) Ingest(batch *stream.Batch[float64]) error {
	err := b.st.Ingest(batch)
	if errors.Is(err, shard.ErrRedoBlocked) {
		return fmt.Errorf("%w: %v", ErrBackpressure, err)
	}
	return err
}

// N is the vertex-space dimension.
func (b Backend) N() int { return b.st.N() }

// Shards is the partition width — the fan-out stamped on request spans.
func (b Backend) Shards() int { return b.st.ShardCount() }

// Health reports the store's liveness fields for /healthz.
func (b Backend) Health() map[string]any {
	return map[string]any{
		"shards":  b.st.Status(),
		"version": b.st.Version(),
		"frozen":  b.st.Frozen(),
		"redo":    b.st.RedoDepth(),
		"breaker": b.st.BreakerState(),
	}
}

// Drain flushes pending engine work at shutdown.
func (b Backend) Drain(ctx context.Context) error { return b.st.Drain(ctx) }
