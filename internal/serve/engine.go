package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"graphblas/internal/builtins"
	"graphblas/internal/core"
	"graphblas/internal/stream"
)

// ErrBackpressure: the delta overlay is so far behind that accepting more
// updates would only grow an unmergeable backlog; the writer should back off
// and retry. Handlers map it to 503 with Retry-After.
var ErrBackpressure = errors.New("serve: ingest backpressure, delta overlay over watermark")

// Config sizes the serving engine's resilience machinery.
type Config struct {
	// N is the vertex-space dimension (the adjacency matrix is N×N).
	N int
	// CompactAfter is the delta-overlay entry count that triggers a
	// breaker-guarded compaction on the ingest path. 0 means the
	// DefaultPolicy watermark.
	CompactAfter int
	// ShedDelta is the delta entry count beyond which ingest is rejected
	// with ErrBackpressure. 0 means 4× CompactAfter.
	ShedDelta int
	// BreakerThreshold is the consecutive compaction failures that open the
	// compaction circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before probing
	// (default 250ms).
	BreakerCooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.CompactAfter <= 0 {
		c.CompactAfter = stream.DefaultPolicy().MaxDeltaNNZ
	}
	if c.ShedDelta <= 0 {
		c.ShedDelta = 4 * c.CompactAfter
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 250 * time.Millisecond
	}
	return c
}

// Snapshot is an immutable materialization of one pinned epoch, shared
// read-only by every query running against it. Queries never touch the live
// streaming matrix — they run on the snapshot, so a request observes one
// atomic prefix of the update stream no matter how the writer churns.
type Snapshot struct {
	// Version is the engine write-version the snapshot was built at — the
	// cache key. A monotone counter rather than (epoch, delta-size) because
	// equal-sized overlays can differ in content (insert then delete of the
	// same edge), which a size fingerprint would alias.
	Version uint64
	// EpochID and DeltaNNZ describe the pinned state: the epoch advances on
	// compaction, the delta count covers updates absorbed since.
	EpochID  uint64
	DeltaNNZ int
	N        int
	NVals    int
	// Mat is the adjacency at the pinned epoch, weights preserved.
	Mat *core.Matrix[float64]

	mu     sync.Mutex
	sym    *core.Matrix[bool]    // lazily built symmetrized pattern for stats
	outdeg *core.Vector[float64] // lazily reduced out-degrees for degree and PPR
}

// Epoch implements pinned: the pinned epoch is the single-engine token.
func (s *Snapshot) Epoch() uint64 { return s.EpochID }

// Dims implements pinned.
func (s *Snapshot) Dims() (n, nvals int) { return s.N, s.NVals }

// VxM implements pinned with the engine's own deferred VxM: it runs at the
// caller's next flush, fused with whatever the query chains onto it.
func (s *Snapshot) VxM(_ context.Context, in *core.Vector[float64]) (*core.Vector[float64], error) {
	out, err := core.NewVector[float64](s.N)
	if err != nil {
		return nil, err
	}
	if err := core.VxM(out, core.NoMaskV, core.NoAccum[float64](), builtins.PlusTimes[float64](), in, s.Mat, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// OutDegrees implements pinned: ⟨+,0⟩ row counts over the stored pattern,
// reduced on first use. The two ops ride the queue every request shares, so
// another request's flush may have run — and failed — them: the vector is
// cached only once its own validity says so, like Sym's transient failures.
func (s *Snapshot) OutDegrees(ctx context.Context) (*core.Vector[float64], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.outdeg != nil {
		return s.outdeg, nil
	}
	ones, err := core.NewMatrix[float64](s.N, s.N)
	if err != nil {
		return nil, err
	}
	if err := core.ApplyM(ones, core.NoMask, core.NoAccum[float64](), builtins.One[float64](), s.Mat, nil); err != nil {
		return nil, err
	}
	outdeg, err := core.NewVector[float64](s.N)
	if err != nil {
		return nil, err
	}
	if err := core.ReduceMatrixToVector(outdeg, core.NoMaskV, core.NoAccum[float64](), builtins.PlusMonoid[float64](), ones, nil); err != nil {
		return nil, err
	}
	if err := core.WaitContext(ctx); err != nil {
		return nil, err
	}
	if err := outdeg.Wait(); err != nil {
		return nil, err
	}
	s.outdeg = outdeg
	return outdeg, nil
}

// Sym returns the snapshot's symmetrized, loop-free boolean pattern —
// the form the triangle/clustering kernels consume — building it on first
// use. Transient build failures are not cached; the next caller retries.
func (s *Snapshot) Sym(ctx context.Context) (*core.Matrix[bool], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sym != nil {
		return s.sym, nil
	}
	rows, cols, _, err := s.Mat.ExtractTuples()
	if err != nil {
		return nil, err
	}
	var si, sj []int
	var sv []bool
	for k := range rows {
		if rows[k] == cols[k] {
			continue
		}
		si = append(si, rows[k], cols[k])
		sj = append(sj, cols[k], rows[k])
		sv = append(sv, true, true)
	}
	sym, err := core.NewMatrix[bool](s.N, s.N)
	if err != nil {
		return nil, err
	}
	if err := sym.Build(si, sj, sv, builtins.LOr()); err != nil {
		return nil, err
	}
	if err := core.WaitContext(ctx); err != nil {
		return nil, err
	}
	s.sym = sym
	return sym, nil
}

// Engine wraps one streaming GraphBLAS matrix as the server's graph store:
// atomic batched ingest with delta backpressure, breaker-guarded compaction,
// and pinned-epoch snapshots with last-known-good fallback. The merge policy
// is manual — compaction is an explicit, breaker-supervised act of this
// layer, not a side effect buried in the ingest path.
type Engine struct {
	cfg     Config
	m       *core.Matrix[float64]
	breaker *Breaker

	// wmu serializes writers (ingest and compaction). Single-writer
	// discipline is what makes the at-least-once recovery in apply sound:
	// between an absorb attempt and its acknowledgement no other batch can
	// interleave, so re-applying the same last-wins batch is idempotent. It
	// also makes recovery writer-exclusive — only the goroutine that knows
	// which batch may have been dropped may Revalidate the store; a reader
	// clearing the mark could let the writer acknowledge a lost write.
	wmu sync.Mutex
	// version counts successful writes (absorbs and compactions). Snapshots
	// are cached per version, so all mutations must go through the Engine.
	version atomic.Uint64

	mu   sync.Mutex
	cur  *Snapshot // snapshot of the newest write-version
	last *Snapshot // last successfully built snapshot (stale fallback)
}

// ingestAttempts bounds the at-least-once re-apply loop in apply.
const ingestAttempts = 3

// NewEngine builds the serving engine over a fresh N×N streaming matrix.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	m, err := core.NewMatrix[float64](cfg.N, cfg.N)
	if err != nil {
		return nil, err
	}
	if _, err := m.SetMergePolicy(stream.Manual()); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:     cfg,
		m:       m,
		breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}, nil
}

// Matrix exposes the live streaming matrix (tests and the load generator
// inspect it; queries must go through Snapshot).
func (e *Engine) Matrix() *core.Matrix[float64] { return e.m }

// Breaker exposes the compaction breaker for health reporting.
func (e *Engine) Breaker() *Breaker { return e.breaker }

// Ingest applies one sealed update batch atomically. When the delta overlay
// is past the compaction watermark it first attempts a breaker-guarded
// compaction; past the shed watermark — the overlay has grown unmergeable
// faster than compaction can drain it — the batch is rejected with
// ErrBackpressure so the writer throttles instead of burying the store.
func (e *Engine) Ingest(b *stream.Batch[float64]) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	delta, err := e.deltaNVals()
	if err != nil {
		return err
	}
	if delta >= e.cfg.ShedDelta {
		// One last compaction attempt before rejecting: the breaker may have
		// cooled down since the overlay crossed the lower watermark.
		e.tryCompact()
		if delta, err = e.deltaNVals(); err != nil {
			return err
		}
		if delta >= e.cfg.ShedDelta {
			IngestThrottled.Inc()
			return ErrBackpressure
		}
	} else if delta >= e.cfg.CompactAfter {
		e.tryCompact()
	}
	return e.apply(b)
}

// deltaNVals reads the overlay size, revalidating the store first when a
// prior abandoned flush or injected fault left it marked invalid. Caller
// holds wmu.
func (e *Engine) deltaNVals() (int, error) {
	delta, err := e.m.DeltaNVals()
	if core.InfoOf(err) == core.InvalidObject {
		if rerr := e.m.Revalidate(); rerr == nil {
			StoreRecovered.Inc()
			delta, err = e.m.DeltaNVals()
		}
	}
	return delta, err
}

// apply absorbs one batch with at-least-once semantics. The engine's flush is
// shared by every goroutine, so some query's expired deadline can abandon the
// absorb (Canceled) or an injected fault can fail it — either way the store
// rolls back to its prior committed content and is marked invalid. Batches
// are last-wins per edge, hence idempotent, so the writer revalidates the
// rolled-back store and re-applies the same batch instead of losing a write
// it is about to acknowledge. Success is judged object-scoped (m.Wait), not
// by the sequence-wide flush error, which may belong to some query's op.
// Caller holds wmu.
func (e *Engine) apply(b *stream.Batch[float64]) error {
	var last error
	for attempt := 0; attempt < ingestAttempts; attempt++ {
		if attempt > 0 {
			if rerr := e.m.Revalidate(); rerr != nil {
				return last
			}
			StoreRecovered.Inc()
		}
		err := e.m.ApplyUpdateBatch(b)
		if err == nil {
			err = e.m.Wait()
		}
		if err == nil {
			e.version.Add(1)
			return nil
		}
		last = err
		if !IsTransient(err) {
			return err
		}
	}
	return last
}

// tryCompact runs one breaker-supervised compaction. Compaction errors
// surface at the flush; a flush abandoned by some request's deadline
// (Canceled) is not evidence the compactor is broken, so only real execution
// failures feed the breaker.
func (e *Engine) tryCompact() {
	if !e.breaker.Allow() {
		return
	}
	err := e.m.Compact()
	if err == nil {
		err = core.Wait()
		if err != nil && e.m.Wait() == nil {
			// The flush is shared: its first error may belong to some query's
			// op. The store's own validity is the verdict on compaction.
			err = nil
		}
	}
	if core.InfoOf(err) == core.Canceled {
		// A flush abandoned by some request's deadline is not evidence the
		// compactor is broken.
		return
	}
	if err == nil {
		e.version.Add(1)
	}
	e.breaker.Record(err)
}

// Compact forces a compaction outside the ingest path (drain, tests).
func (e *Engine) Compact() error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if err := e.m.Compact(); err != nil {
		return err
	}
	if err := e.m.Wait(); err != nil {
		return err
	}
	e.version.Add(1)
	return nil
}

// Snapshot returns a materialized snapshot of the current pinned state. The
// second result reports staleness: when pinning or materializing fails
// transiently (deadline-abandoned flush, injected fault, open breaker
// downstream), the engine degrades to the last good snapshot rather than
// failing the request — the caller stamps the response with the staleness
// header. With no fallback available the error is returned for the retry
// layer to chew on.
func (e *Engine) Snapshot(ctx context.Context) (*Snapshot, bool, error) {
	if ctx != nil && ctx.Err() != nil {
		return e.fallback(ctx.Err())
	}
	// Load the version before probing: a write landing between the two only
	// costs a spurious rebuild on the next call, never a stale-as-fresh.
	v := e.version.Load()
	// Health probe: a store poisoned by an abandoned or failed absorb (only
	// the writer may revalidate it) degrades reads to the last good snapshot.
	if _, err := e.m.DeltaNVals(); err != nil {
		return e.fallback(err)
	}
	e.mu.Lock()
	cur := e.cur
	e.mu.Unlock()
	if cur != nil && cur.Version == v {
		return cur, false, nil
	}
	snap, err := e.materialize(ctx)
	if err != nil {
		return e.fallback(err)
	}
	snap.Version = v
	e.mu.Lock()
	e.cur = snap
	e.last = snap
	e.mu.Unlock()
	return snap, false, nil
}

// materialize pins the current epoch and builds its snapshot matrix.
func (e *Engine) materialize(ctx context.Context) (*Snapshot, error) {
	ep, err := e.m.PinEpoch()
	if err != nil {
		return nil, err
	}
	rows, cols, vals := ep.Tuples()
	mat, err := core.NewMatrix[float64](e.cfg.N, e.cfg.N)
	if err != nil {
		return nil, err
	}
	if err := mat.Build(rows, cols, vals, core.NoAccum[float64]()); err != nil {
		return nil, err
	}
	if err := core.WaitContext(ctx); err != nil {
		return nil, err
	}
	return &Snapshot{
		EpochID:  ep.ID(),
		DeltaNNZ: ep.DeltaNVals(),
		N:        e.cfg.N,
		NVals:    ep.NVals(),
		Mat:      mat,
	}, nil
}

// fallback degrades to the last good snapshot, or surfaces err without one.
func (e *Engine) fallback(err error) (*Snapshot, bool, error) {
	e.mu.Lock()
	last := e.last
	e.mu.Unlock()
	if last != nil {
		return last, true, nil
	}
	return nil, false, err
}
