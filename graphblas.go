// Package graphblas is a Go implementation of the GraphBLAS C API design of
// Buluç, Mattson, McMillan, Moreira and Yang ("Design of the GraphBLAS API
// for C", IPDPS Workshops 2017): linear-algebraic building blocks for graph
// algorithms over arbitrary semirings, with opaque sparse collections,
// masks, accumulators, descriptors, a blocking/nonblocking execution model,
// and the paper's error model.
//
// # Mapping from the C API
//
//   - Opaque handles (GrB_Matrix, GrB_Vector, …) are pointers to structs
//     with unexported fields: Matrix[D], Vector[D].
//   - The C API's domain-suffixed function families and implicit typecasts
//     become Go generics: a GraphBLAS binary operator ⟨D1, D2, D3, ⊙⟩ is a
//     BinaryOp[D1, D2, D3]; predefined operators are generic constructors
//     (Plus[int32]() rather than GrB_PLUS_INT32).
//   - GrB_Info return codes become errors carrying an Info code (InfoOf).
//   - GrB_NULL becomes nil (masks, descriptors) or a zero value (NoAccum).
//   - GrB_ALL becomes All (a nil index slice).
//   - GrB_Index is Go int.
//
// # Quickstart
//
//	_ = graphblas.Init(graphblas.NonBlocking)
//	defer graphblas.Finalize()
//
//	A, _ := graphblas.NewMatrix[float64](n, n)
//	_ = A.Build(rows, cols, weights, graphblas.NoAccum[float64]())
//	frontier, _ := graphblas.NewVector[float64](n)
//	_ = frontier.SetElement(0, source)
//	_ = graphblas.VxM(frontier, graphblas.NoMaskV, graphblas.NoAccum[float64](),
//	    graphblas.MinPlus[float64](), frontier, A, nil)
//
// See the examples directory for complete programs, including the paper's
// batched betweenness-centrality algorithm (Figure 3).
package graphblas

import (
	"context"
	"io"

	"graphblas/internal/core"
	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/setalg"
	"graphblas/internal/stream"
)

// --- collections (Section III-A) ---

// Matrix is the opaque GraphBLAS matrix ⟨D, M, N, {(i, j, A_ij)}⟩; absent
// elements are undefined, not implicit zeros.
type Matrix[D any] = core.Matrix[D]

// Vector is the opaque GraphBLAS vector ⟨D, N, {(i, v_i)}⟩.
type Vector[D any] = core.Vector[D]

// NewMatrix creates an nrows-by-ncols matrix (GrB_Matrix_new).
func NewMatrix[D any](nrows, ncols int) (*Matrix[D], error) {
	return core.NewMatrix[D](nrows, ncols)
}

// NewVector creates a vector of size n (GrB_Vector_new).
func NewVector[D any](n int) (*Vector[D], error) { return core.NewVector[D](n) }

// --- streaming graph engine (extension) ---

// UpdateBatch collects edge inserts and deletes for one atomic application
// via Matrix.ApplyUpdateBatch. Updates dedup last-wins when the batch is
// sealed; the builder may be reused (Reset) after applying.
type UpdateBatch[D any] = stream.Batch[D]

// NewUpdateBatch creates an empty update batch.
func NewUpdateBatch[D any]() *UpdateBatch[D] { return stream.NewBatch[D]() }

// MergePolicy is the size/age policy deciding when a matrix's streamed
// delta overlay compacts into its main store (Matrix.SetMergePolicy).
type MergePolicy = stream.Policy

// DefaultMergePolicy bounds the overlay at 32Ki updates or 64 batches.
func DefaultMergePolicy() MergePolicy { return stream.DefaultPolicy() }

// ManualMerge never compacts automatically; only Matrix.Compact merges.
func ManualMerge() MergePolicy { return stream.Manual() }

// EagerMerge compacts after every absorbed batch.
func EagerMerge() MergePolicy { return stream.Eager() }

// Epoch is a snapshot-isolated read view pinned by Matrix.PinEpoch: it keeps
// serving the matrix content as of the pin while later batches and merges
// publish new state.
type Epoch[D any] = stream.Epoch[D]

// --- algebraic objects (Section III-B, Figure 1) ---

// UnaryOp is a GraphBLAS unary operator ⟨D1, D2, f⟩.
type UnaryOp[D1, D2 any] = core.UnaryOp[D1, D2]

// BinaryOp is a GraphBLAS binary operator ⟨D1, D2, D3, ⊙⟩.
type BinaryOp[D1, D2, D3 any] = core.BinaryOp[D1, D2, D3]

// IndexUnaryOp maps (value, row, col) → result (select/apply extension).
type IndexUnaryOp[D1, D2 any] = core.IndexUnaryOp[D1, D2]

// Monoid is a GraphBLAS monoid ⟨D, ⊙, identity⟩.
type Monoid[D any] = core.Monoid[D]

// Semiring is a GraphBLAS semiring ⟨D1, D2, D3, ⊕, ⊗, 0⟩.
type Semiring[D1, D2, D3 any] = core.Semiring[D1, D2, D3]

// NewUnaryOp builds a unary operator from a function (GrB_UnaryOp_new).
func NewUnaryOp[D1, D2 any](name string, f func(D1) D2) (UnaryOp[D1, D2], error) {
	return core.NewUnaryOp(name, f)
}

// NewBinaryOp builds a binary operator from a function (GrB_BinaryOp_new).
func NewBinaryOp[D1, D2, D3 any](name string, f func(D1, D2) D3) (BinaryOp[D1, D2, D3], error) {
	return core.NewBinaryOp(name, f)
}

// NewMonoid builds a monoid from an operator and identity (GrB_Monoid_new).
func NewMonoid[D any](op BinaryOp[D, D, D], identity D) (Monoid[D], error) {
	return core.NewMonoid(op, identity)
}

// NewSemiring builds a semiring from an additive monoid and multiplicative
// operator (GrB_Semiring_new).
func NewSemiring[D1, D2, D3 any](add Monoid[D3], mul BinaryOp[D1, D2, D3]) (Semiring[D1, D2, D3], error) {
	return core.NewSemiring(add, mul)
}

// NoAccum is the "no accumulator" argument (GrB_NULL for accum).
func NoAccum[D any]() BinaryOp[D, D, D] { return core.NoAccum[D]() }

// --- control objects (Section III-C) ---

// Descriptor modifies method semantics; nil selects all defaults.
type Descriptor = core.Descriptor

// Field identifies the descriptor field (GrB_OUTP, GrB_MASK, GrB_INP0/1).
type Field = core.Field

// Value is a descriptor setting (GrB_REPLACE, GrB_SCMP, GrB_TRAN).
type Value = core.Value

// Descriptor fields and values (Table V literals).
const (
	OutP      = core.OutP
	MaskField = core.MaskField
	Inp0      = core.Inp0
	Inp1      = core.Inp1

	Replace = core.Replace
	SCMP    = core.SCMP
	Tran    = core.Tran
)

// NewDescriptor creates an empty descriptor (GrB_Descriptor_new).
func NewDescriptor() (*Descriptor, error) { return core.NewDescriptor() }

// Desc starts a chainable descriptor builder.
func Desc() *Descriptor { return core.Desc() }

// NoMask is the "no write mask" argument for matrix outputs (GrB_NULL).
var NoMask *Matrix[bool]

// NoMaskV is the "no write mask" argument for vector outputs (GrB_NULL).
var NoMaskV *Vector[bool]

// All is the GrB_ALL literal: a nil index list selects all indices.
var All []int

// --- context and execution model (Section IV) ---

// Mode selects blocking or nonblocking execution.
type Mode = core.Mode

// Execution modes.
const (
	Blocking    = core.Blocking
	NonBlocking = core.NonBlocking
)

// Stats reports execution-engine counters.
type Stats = core.Stats

// Init establishes the GraphBLAS context (GrB_init); once per program.
func Init(mode Mode) error { return core.Init(mode) }

// Finalize terminates the context (GrB_finalize).
func Finalize() error { return core.Finalize() }

// Wait terminates the current sequence, completing all pending operations
// (GrB_wait).
func Wait() error { return core.Wait() }

// WaitContext is Wait bounded by a context (extension). When ctx is canceled
// or its deadline expires mid-flush, operations not yet dispatched are
// abandoned with a Canceled error — their outputs become invalid but
// restorable, like after any execution error — while kernels already running
// finish. Cancellation is flush-scoped: the engine has one shared queue, so a
// deadline expiring in one goroutine's WaitContext abandons whatever deferred
// work is in the flush, not only the caller's. A nil ctx is identical to Wait.
func WaitContext(ctx context.Context) error { return core.WaitContext(ctx) }

// ResetForTesting restores a pristine context; not part of the paper's API.
func ResetForTesting() { core.ResetForTesting() }

// CurrentMode reports the context mode.
func CurrentMode() Mode { return core.CurrentMode() }

// StatsSnapshot returns a consistent snapshot of the execution-engine
// counters; the sanctioned way to read them once flushes run in parallel.
func StatsSnapshot() Stats { return core.StatsSnapshot() }

// GetStats is an alias for StatsSnapshot, kept for source compatibility.
func GetStats() Stats { return core.StatsSnapshot() }

// LastError returns the most recent execution-error detail (GrB_error).
func LastError() string { return core.LastError() }

// --- error model (Section V) ---

// Info enumerates the GraphBLAS status codes.
type Info = core.Info

// Error is the error type returned by GraphBLAS methods.
type Error = core.Error

// Status codes (GrB_Info values).
const (
	Success              = core.Success
	NoValue              = core.NoValue
	UninitializedObject  = core.UninitializedObject
	NullPointer          = core.NullPointer
	InvalidValue         = core.InvalidValue
	InvalidIndex         = core.InvalidIndex
	DomainMismatch       = core.DomainMismatch
	DimensionMismatch    = core.DimensionMismatch
	OutputNotEmpty       = core.OutputNotEmpty
	UninitializedContext = core.UninitializedContext
	OutOfMemory          = core.OutOfMemory
	IndexOutOfBounds     = core.IndexOutOfBounds
	InvalidObject        = core.InvalidObject
	PanicInfo            = core.PanicInfo
	Canceled             = core.Canceled
)

// InfoOf extracts the status code from an error (Success for nil).
func InfoOf(err error) Info { return core.InfoOf(err) }

// IsNoValue reports whether err is the benign NoValue indication.
func IsNoValue(err error) bool { return core.IsNoValue(err) }

// SequenceError is one entry of the per-sequence execution error log: the
// failing operation's method name, its program-order position in the
// sequence, and the error. Wait reports only the first error of a sequence
// (Section V); SequenceErrors exposes all of them.
type SequenceError = core.SequenceError

// SequenceErrors returns the execution error log of the current sequence,
// or of the most recently terminated one if none is open.
func SequenceErrors() []SequenceError { return core.SequenceErrors() }

// --- fault injection & recovery (robustness extension) ---

// FaultRule describes one rule of a fault-injection plan: which sites it
// targets (an op name like "MxM", a kernel site like
// "format.kernel.csr.pull", a "format.*" glob, or "" for all), what kind
// of fault to inject, and when (call-count and probability gates).
type FaultRule = faults.Rule

// FaultKind classifies an injected fault.
type FaultKind = faults.Kind

// Injectable fault kinds.
const (
	// FaultOOM injects an allocation failure (GrB_OUT_OF_MEMORY).
	FaultOOM = faults.OOM
	// FaultErr injects an unspecified kernel failure (GrB_PANIC).
	FaultErr = faults.KernelErr
	// FaultPanic injects a user-operator-path panic (GrB_PANIC).
	FaultPanic = faults.PanicFault
)

// ConfigureFaults installs a deterministic fault-injection plan, replacing
// any previous one. The engine survives what the plan injects: failed
// operations roll their output back (invalid but restorable), a failed
// kernel the engine chose over the reference one retries on the reference
// kernel, and every failure lands
// in the sequence error log.
func ConfigureFaults(seed int64, rules ...FaultRule) { faults.Configure(seed, rules...) }

// DisableFaults removes the fault-injection plan.
func DisableFaults() { faults.Disable() }

// ResetFaultCounters zeroes the plan's call and injection counters so the
// same schedule replays from the start.
func ResetFaultCounters() { faults.Reset() }

// InjectedFaults reports the number of faults injected since the plan was
// installed or last reset.
func InjectedFaults() int64 { return faults.InjectedCount() }

// SetAllocBudget sets the engine's per-allocation byte cap — the
// allocation-budget governor denies larger requests with OutOfMemory before
// attempting them — and returns the previous cap. n <= 0 restores the
// default (1 TiB).
func SetAllocBudget(n int64) int64 { return faults.SetAllocBudget(n) }

// --- observability (extension) ---

// Span is the record of one operation's passage through the execution
// engine: method name, program-order position, the kernel the engine chose,
// bytes touched, stage timestamps (enqueue → schedule → kernel →
// done), whether the op retried on the reference kernel or rolled back, and the
// outcome.
type Span = obs.Span

// SpanOutcome classifies how an operation's execution concluded.
type SpanOutcome = obs.Outcome

// Span outcomes.
const (
	// SpanOK: the kernel ran and the result committed.
	SpanOK = obs.OutcomeOK
	// SpanError: the kernel failed; the output rolled back and was marked
	// invalid.
	SpanError = obs.OutcomeError
	// SpanShortCircuit: the operation was cancelled because an input carried
	// a prior execution error.
	SpanShortCircuit = obs.OutcomeShortCircuit
	// SpanElided: dead-store elimination pruned the operation.
	SpanElided = obs.OutcomeElided
)

// Tracer receives completed operation spans. OnSpan may be called from
// concurrent flush workers, so implementations must be concurrency-safe.
type Tracer = obs.Tracer

// SetTracer registers t as the engine's span consumer and returns the
// previous one. Passing nil disables span collection entirely; the disabled
// per-operation cost is a single atomic load and no allocation.
func SetTracer(t Tracer) Tracer { return obs.SetTracer(t) }

// NewMetricsTracer returns the built-in tracer that folds spans into the
// engine metrics registry (per-op latency and queue-delay histograms,
// per-outcome counters), making them visible through WriteMetricsText and
// MetricsSnapshot.
func NewMetricsTracer() Tracer { return obs.NewMetricsTracer() }

// WriteMetricsText writes the engine metrics registry in the Prometheus text
// exposition format.
func WriteMetricsText(w io.Writer) error { return obs.WriteText(w) }

// MetricsSnapshot returns a JSON-able snapshot of the engine metrics
// registry: counter values and histogram bucket counts keyed by metric name.
func MetricsSnapshot() map[string]any { return obs.Snapshot() }

// PublishExpvarMetrics publishes the metrics snapshot under the expvar name
// "graphblas_metrics" (visible at /debug/vars). Idempotent.
func PublishExpvarMetrics() { obs.PublishExpvar() }

// SetProfilingLabels toggles pprof labeling of operation execution and
// returns the previous setting: CPU profile samples taken inside flush
// workers then carry a "graphblas_op" label naming the operation kind.
func SetProfilingLabels(on bool) bool { return obs.SetProfilingLabels(on) }

// --- power-set algebra (Table I, row 5) ---

// IntSet is an immutable subset of a bounded integer universe, the element
// domain of the power-set semiring.
type IntSet = setalg.Set

// NewIntSet returns the empty set over [0, universe).
func NewIntSet(universe int) IntSet { return setalg.NewSet(universe) }

// IntSetOf returns the set holding the given members.
func IntSetOf(universe int, members ...int) IntSet { return setalg.SetOf(universe, members...) }

// FullIntSet returns the whole universe (the ∩ identity).
func FullIntSet(universe int) IntSet { return setalg.FullSet(universe) }

// UnionIntersect returns the power-set semiring ⟨∪, ∩, ∅⟩ of Table I.
func UnionIntersect(universe int) Semiring[IntSet, IntSet, IntSet] {
	return setalg.UnionIntersect(universe)
}

// UnionMonoid returns ⟨P(Z), ∪, ∅⟩.
func UnionMonoid(universe int) Monoid[IntSet] { return setalg.UnionMonoid(universe) }

// IntersectMonoid returns ⟨P(Z), ∩, U⟩.
func IntersectMonoid(universe int) Monoid[IntSet] { return setalg.IntersectMonoid(universe) }

// --- serialization (extension) ---

// MatrixSerialize writes m in the stable binary format; forces completion.
func MatrixSerialize[D any](m *Matrix[D], w io.Writer) error { return core.MatrixSerialize(m, w) }

// MatrixDeserialize reconstructs a serialized matrix; the domain must match.
func MatrixDeserialize[D any](r io.Reader) (*Matrix[D], error) {
	return core.MatrixDeserialize[D](r)
}

// VectorSerialize writes v in the stable binary format; forces completion.
func VectorSerialize[D any](v *Vector[D], w io.Writer) error { return core.VectorSerialize(v, w) }

// VectorDeserialize reconstructs a serialized vector; the domain must match.
func VectorDeserialize[D any](r io.Reader) (*Vector[D], error) {
	return core.VectorDeserialize[D](r)
}

// --- raw import/export (GrB 1.3-style extension) ---

// MatrixExportCSR copies out the CSR arrays of m; forces completion.
func MatrixExportCSR[D any](m *Matrix[D]) (rowPtr, colIdx []int, values []D, err error) {
	return core.MatrixExportCSR(m)
}

// MatrixImportCSR constructs a matrix from validated CSR arrays.
func MatrixImportCSR[D any](nrows, ncols int, rowPtr, colIdx []int, values []D) (*Matrix[D], error) {
	return core.MatrixImportCSR(nrows, ncols, rowPtr, colIdx, values)
}

// VectorExport copies out the sorted (indices, values) content of v.
func VectorExport[D any](v *Vector[D]) (indices []int, values []D, err error) {
	return core.VectorExport(v)
}

// VectorImport constructs a vector from sorted index/value arrays.
func VectorImport[D any](n int, indices []int, values []D) (*Vector[D], error) {
	return core.VectorImport(n, indices, values)
}

// --- iterators (extension) ---

// MatrixIterator streams matrix entries in row-major order.
type MatrixIterator[D any] = core.MatrixIterator[D]

// VectorIterator streams vector entries in index order.
type VectorIterator[D any] = core.VectorIterator[D]

// MatrixIterate returns a snapshot iterator over m's entries; forces
// completion.
func MatrixIterate[D any](m *Matrix[D]) (*MatrixIterator[D], error) {
	return core.MatrixIterate(m)
}

// VectorIterate returns a snapshot iterator over v's entries; forces
// completion.
func VectorIterate[D any](v *Vector[D]) (*VectorIterator[D], error) {
	return core.VectorIterate(v)
}

// MatrixForEach calls f for every stored entry in row-major order; return
// false to stop early.
func MatrixForEach[D any](m *Matrix[D], f func(i, j int, v D) bool) error {
	return core.MatrixForEach(m, f)
}

// VectorForEach calls f for every stored entry in index order; return false
// to stop early.
func VectorForEach[D any](v *Vector[D], f func(i int, x D) bool) error {
	return core.VectorForEach(v, f)
}

// NewMonoidWithTerminal builds a monoid with an annihilator predicate for
// early-exit reductions (extension).
func NewMonoidWithTerminal[D any](op BinaryOp[D, D, D], identity D, terminal func(D) bool) (Monoid[D], error) {
	return core.NewMonoidWithTerminal(op, identity, terminal)
}

// --- runtime tuning ---

// SetMaxWorkers bounds the goroutines any parallel kernel uses and returns
// the previous bound. The default is GOMAXPROCS.
func SetMaxWorkers(n int) int { return parallel.SetMaxWorkers(n) }

// MaxWorkers reports the current kernel parallelism bound.
func MaxWorkers() int { return parallel.MaxWorkers() }
