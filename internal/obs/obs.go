// Package obs is the execution engine's observability layer. The paper's
// execution model (Section IV) deliberately makes the engine opaque — methods
// may defer, reorder, fuse, or elide work — which means the only way to
// understand what a deployment is actually doing is instrumentation the
// binding itself provides (SuiteSparse:GraphBLAS ships a "burble" diagnostic
// facility for the same reason). This package supplies three cooperating
// facilities:
//
//   - Per-operation spans. A Span follows one operation through the engine's
//     lifecycle — enqueue → schedule → kernel → commit/rollback — recording
//     the method name, program position, storage layout the kernel consumed,
//     an estimate of bytes touched, stage timestamps, and the outcome
//     (success, failure with rollback, short-circuit cancellation, retry on
//     the generic path, or elision). Spans exist only while a Tracer is
//     registered; with none, Begin returns nil and every Span method is a
//     nil-safe no-op, so the disabled hot path costs one atomic load and
//     zero allocations (guarded by TestDisabledPathAllocFree).
//
//   - An engine-wide metrics registry (metrics.go, engine.go): counters,
//     gauges, and histograms with lock-free atomic hot paths, registered once
//     at package init. The always-on counters absorb the execution engine's
//     previous ad-hoc Stats atomics; the timing histograms are fed only by
//     the built-in MetricsTracer or the kernel instrumentation, both inert
//     until tracing is enabled.
//
//   - Exporters (export.go): Prometheus text exposition, a JSON-able
//     snapshot, and an expvar publication of that snapshot.
//
// The package sits at the bottom of the dependency graph (standard library
// only), so internal/core, internal/dataflow, and internal/sparse may all
// emit into it without cycles.
package obs

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// Outcome classifies how an operation's passage through the engine ended.
type Outcome uint8

const (
	// OutcomeOK: the kernel ran and the result committed.
	OutcomeOK Outcome = iota
	// OutcomeError: the kernel failed (or a fault was injected); the output
	// was rolled back to its prior committed content and marked invalid.
	OutcomeError
	// OutcomeShortCircuit: the operation never ran its kernel because an
	// input (or its merge-mode output) was invalid from a prior execution
	// error — the DAG scheduler's cancellation mechanism.
	OutcomeShortCircuit
	// OutcomeElided: dead-store elimination pruned the operation before it
	// reached the scheduler.
	OutcomeElided
	// OutcomeCanceled: the flush's context was canceled before the operation
	// was dispatched; it was abandoned unexecuted and its output marked
	// invalid (restorable by a full overwrite).
	OutcomeCanceled
)

// String returns the outcome label used in metrics.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeError:
		return "error"
	case OutcomeShortCircuit:
		return "short_circuit"
	case OutcomeElided:
		return "elided"
	case OutcomeCanceled:
		return "canceled"
	}
	return "unknown"
}

// Span is the record of one operation's passage through the execution
// engine. Producers obtain one from Begin (nil when tracing is off — every
// method tolerates a nil receiver), fill it through the nil-safe setters as
// the operation advances, and hand it to Emit exactly once.
type Span struct {
	// Op is the GraphBLAS method name ("MxM", "Matrix.Resize", …).
	Op string
	// Pos is the operation's zero-based program-order position in its
	// sequence, or -1 if it was never assigned one.
	Pos int
	// Layout names the storage layout the kernel consumed ("csr", "csr-dot"
	// for MxM's transpose-free masked kernel, "csr-pull" for a scatter
	// product the engine ran as dot products over the cached transpose,
	// "bitmap", "bitmap-fast", "hyper"); empty when the operation has no
	// format-engine dispatch.
	Layout string
	// Bytes is an estimate of the bytes the kernel touched (derived from the
	// result's stored-element count), 0 when unknown.
	Bytes int64
	// Retried reports that a fast-path kernel failed recoverably and the
	// operation re-ran on the generic CSR path.
	Retried bool
	// Fanout is the number of shard sub-engines a serving-layer request span
	// covered; 0 for engine-operation spans and unsharded request spans.
	Fanout int
	// RolledBack reports that the output's committed store was restored
	// after a kernel failure.
	RolledBack bool
	// Outcome classifies how execution concluded; Err is the execution error
	// for non-OK outcomes.
	Outcome Outcome
	Err     error
	// Stage timestamps: Enqueued is stamped by Begin, Scheduled when a
	// worker (or the blocking path) picks the operation up, Kernel
	// immediately before the kernel body runs, Done by Emit.
	Enqueued  time.Time
	Scheduled time.Time
	Kernel    time.Time
	Done      time.Time
}

// SetPos records the operation's program-order position.
func (s *Span) SetPos(pos int) {
	if s != nil {
		s.Pos = pos
	}
}

// MarkScheduled stamps the moment the scheduler handed the operation to an
// executor.
func (s *Span) MarkScheduled() {
	if s != nil {
		s.Scheduled = time.Now()
	}
}

// MarkKernel stamps the moment the kernel body starts.
func (s *Span) MarkKernel() {
	if s != nil {
		s.Kernel = time.Now()
	}
}

// NoteLayout records the storage layout the kernel consumed. The last call
// wins, so a retried operation reports the layout that actually produced the
// committed result.
func (s *Span) NoteLayout(layout string) {
	if s != nil {
		s.Layout = layout
	}
}

// AddBytes accumulates an estimate of bytes touched by the kernel.
func (s *Span) AddBytes(n int64) {
	if s != nil {
		s.Bytes += n
	}
}

// NoteFanout records how many shard sub-engines a serving-layer request
// touched (the scatter width of a sharded scatter-gather query).
func (s *Span) NoteFanout(n int) {
	if s != nil {
		s.Fanout = n
	}
}

// NoteRetry records that a fast-path kernel failed recoverably and the
// operation fell back to the generic path.
func (s *Span) NoteRetry() {
	if s != nil {
		s.Retried = true
	}
}

// NoteRollback records that the output's committed store was restored after
// a failure.
func (s *Span) NoteRollback() {
	if s != nil {
		s.RolledBack = true
	}
}

// Finish records the outcome and error. Emit must still be called to deliver
// the span.
func (s *Span) Finish(o Outcome, err error) {
	if s != nil {
		s.Outcome = o
		s.Err = err
	}
}

// QueueLatency is the enqueue→schedule interval, 0 if either stamp is
// missing.
func (s *Span) QueueLatency() time.Duration {
	if s == nil || s.Enqueued.IsZero() || s.Scheduled.IsZero() {
		return 0
	}
	return s.Scheduled.Sub(s.Enqueued)
}

// Duration is the enqueue→done interval, 0 if the span never completed.
func (s *Span) Duration() time.Duration {
	if s == nil || s.Enqueued.IsZero() || s.Done.IsZero() {
		return 0
	}
	return s.Done.Sub(s.Enqueued)
}

// Tracer receives completed operation spans. OnSpan may be called from
// concurrent flush workers; implementations must be safe for concurrent use.
// The span is owned by the callee after delivery.
type Tracer interface {
	OnSpan(*Span)
}

// tracerBox wraps the registered Tracer so an interface value can live in an
// atomic.Pointer.
type tracerBox struct{ t Tracer }

var activeTracer atomic.Pointer[tracerBox]

// SetTracer registers t as the engine's span consumer and returns the
// previous one (nil for none). Passing nil disables span collection; the
// per-operation hot path then costs a single atomic load.
func SetTracer(t Tracer) Tracer {
	var prev *tracerBox
	if t == nil {
		prev = activeTracer.Swap(nil)
	} else {
		prev = activeTracer.Swap(&tracerBox{t: t})
	}
	if prev == nil {
		return nil
	}
	return prev.t
}

// Enabled reports whether a tracer is registered — the master switch for
// span allocation and kernel-level timing.
func Enabled() bool { return activeTracer.Load() != nil }

// Begin opens a span for one operation, stamping the enqueue time. Returns
// nil — and allocates nothing — when no tracer is registered.
//
//grblint:hotpath
func Begin(op string) *Span {
	if activeTracer.Load() == nil {
		return nil
	}
	return &Span{Op: op, Pos: -1, Enqueued: time.Now()}
}

// Emit stamps the completion time and delivers the span to the registered
// tracer. A nil span (tracing was off at Begin) is a no-op; if the tracer
// was unregistered mid-flight the span is dropped.
func Emit(s *Span) {
	if s == nil {
		return
	}
	s.Done = time.Now()
	if b := activeTracer.Load(); b != nil {
		b.t.OnSpan(s)
	}
}

// kernelNoop is the pre-allocated completion callback for the disabled path.
var kernelNoop = func(int) {}

// KernelStart begins timing one storage-kernel invocation and returns the
// completion callback, to be called with the result's stored-element count.
// With tracing disabled it returns a shared no-op, so instrumented kernels
// pay one atomic load and no allocation. Callers invoke the callback
// directly rather than deferring a closure, keeping the disabled path
// allocation-free.
//
//grblint:hotpath
func KernelStart(kernel string) func(nnz int) {
	if activeTracer.Load() == nil {
		return kernelNoop
	}
	start := time.Now()
	return func(nnz int) {
		KernelSeconds.With(kernel).Observe(time.Since(start).Seconds())
		KernelNNZ.With(kernel).Observe(float64(nnz))
	}
}

// profLabels gates pprof label application on executor goroutines.
var profLabels atomic.Bool

// SetProfilingLabels toggles pprof labeling of operation execution and
// returns the previous setting. With it on, CPU profile samples taken inside
// DAG workers carry a "graphblas_op" label naming the operation kind, so a
// profile attributes time to MxM vs EWiseAdd vs Reduce rather than to an
// anonymous worker goroutine.
func SetProfilingLabels(on bool) bool { return profLabels.Swap(on) }

// ProfilingLabels reports whether executor goroutines apply pprof labels.
func ProfilingLabels() bool { return profLabels.Load() }

// Do runs f, under a pprof label naming the operation kind when profiling
// labels are enabled. The disabled path is a single atomic load.
func Do(op string, f func()) {
	if !profLabels.Load() {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("graphblas_op", op), func(context.Context) { f() })
}

// MetricsTracer is the built-in Tracer that folds spans into the engine
// metrics registry: per-op duration and queue-latency histograms plus
// per-outcome span counters. Registering it (and nothing else) turns the
// span stream into Prometheus-exportable aggregates with no external
// dependencies.
type MetricsTracer struct{}

// NewMetricsTracer returns the registry-feeding tracer.
func NewMetricsTracer() Tracer { return MetricsTracer{} }

// OnSpan implements Tracer.
func (MetricsTracer) OnSpan(s *Span) {
	SpanOutcomes.With(s.Outcome.String()).Inc()
	if d := s.Duration(); d > 0 {
		OpSeconds.With(s.Op).Observe(d.Seconds())
	}
	if q := s.QueueLatency(); q > 0 {
		OpQueueSeconds.With(s.Op).Observe(q.Seconds())
	}
	if s.Bytes > 0 {
		OpBytes.With(s.Op).Observe(float64(s.Bytes))
	}
}
