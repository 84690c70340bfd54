package serve

import (
	"context"

	"graphblas/internal/core"
	"graphblas/internal/stream"
)

// Backend is the graph store behind the HTTP layer. Two implementations
// exist: the single-engine path (NewEngineBackend, wrapping *Engine) and the
// horizontally sharded path (NewShardedBackend, wrapping a *shard.Store whose
// every shard owns an independent engine instance). The handler spine —
// admission, deadlines, retries, degradation — and the queries themselves are
// backend-agnostic: a sharded deployment inherits the whole resilience
// ladder, with the scatter-gather fan-out hidden behind the view's VxM.
type Backend interface {
	// View pins one consistent read view. The bool reports staleness — the
	// backend degraded to its last good view instead of failing.
	View(ctx context.Context) (View, bool, error)
	// Ingest applies one sealed update batch atomically (all-shards-or-none
	// on the sharded path).
	Ingest(b *stream.Batch[float64]) error
	// N is the vertex-space dimension.
	N() int
	// Shards is the partition width (1 for the single-engine path) — the
	// fan-out stamped on request spans.
	Shards() int
	// Health reports backend-specific liveness fields for /healthz.
	Health() map[string]any
	// Drain flushes pending engine work at shutdown.
	Drain(ctx context.Context) error
}

// pinned is the little a query needs from a pinned store state. *Snapshot
// answers from one engine; *shard.Snapshot differs only in VxM, which it
// answers by scatter-gather over its shards' engines.
type pinned interface {
	// Epoch is the consistency token responses carry in X-Graphblas-Epoch.
	Epoch() uint64
	// Dims reports the vertex-space dimension and the stored-edge count.
	Dims() (n, nvals int)
	// VxM returns inᵀA as a new vector in the coordinator's context.
	VxM(ctx context.Context, in *core.Vector[float64]) (*core.Vector[float64], error)
	// OutDegrees returns the out-degree vector, built once per pinned state.
	OutDegrees(ctx context.Context) (*core.Vector[float64], error)
	// Sym returns the symmetrized, loop-free boolean pattern, built once per
	// pinned state.
	Sym(ctx context.Context) (*core.Matrix[bool], error)
}

// View is one pinned, immutable read view: every query a request can ask
// (KHop, PPRTopK, Stats, Degree — query.go), answered at a single epoch.
type View struct{ g pinned }

// Epoch is the consistency token of the pinned state.
func (v View) Epoch() uint64 { return v.g.Epoch() }

// engineBackend adapts the single-engine store to the Backend interface.
type engineBackend struct {
	eng *Engine
}

// NewEngineBackend wraps an Engine as a serving backend.
func NewEngineBackend(eng *Engine) Backend { return engineBackend{eng: eng} }

func (b engineBackend) View(ctx context.Context) (View, bool, error) {
	snap, stale, err := b.eng.Snapshot(ctx)
	if snap == nil {
		return View{}, false, err
	}
	return View{snap}, stale, err
}

func (b engineBackend) Ingest(batch *stream.Batch[float64]) error { return b.eng.Ingest(batch) }

func (b engineBackend) N() int { return b.eng.cfg.N }

func (b engineBackend) Shards() int { return 1 }

func (b engineBackend) Health() map[string]any {
	//grblint:ignore swallowederr liveness must answer even over a poisoned store; zero values are the honest degraded report
	epoch, _ := b.eng.Matrix().EpochID()
	//grblint:ignore swallowederr liveness must answer even over a poisoned store; zero values are the honest degraded report
	delta, _ := b.eng.Matrix().DeltaNVals()
	return map[string]any{
		"backend": "engine",
		"breaker": b.eng.Breaker().State(),
		"epoch":   epoch,
		"delta":   delta,
	}
}

func (b engineBackend) Drain(ctx context.Context) error { return core.WaitContext(ctx) }
