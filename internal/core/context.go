package core

import (
	stdctx "context"
	"sync"
	"sync/atomic"

	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/parallel"
)

// Mode selects the execution mode of the GraphBLAS context (Section IV).
type Mode int

const (
	// Blocking mode: each method completes its operation and stores the
	// output object before returning.
	Blocking Mode = iota
	// NonBlocking mode: methods that manipulate only opaque objects may
	// defer execution until the sequence is terminated by Wait or a method
	// forces completion of an object.
	NonBlocking
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Blocking {
		return "Blocking"
	}
	return "NonBlocking"
}

// Scheduler selects how a nonblocking flush executes the deferred queue.
type Scheduler int

const (
	// SchedSequential drains the queue one operation at a time in program
	// order — the pre-dataflow behavior, kept for ablation and debugging.
	SchedSequential Scheduler = iota
	// SchedDag builds the hazard DAG over the queue (internal/dataflow) and
	// executes independent operations concurrently on a bounded worker pool,
	// preserving observable program-order semantics. The default. It engages
	// only when the worker bound exceeds one and the flush has more than one
	// runnable operation; otherwise the sequential path runs.
	SchedDag
)

// String returns the scheduler name.
func (s Scheduler) String() string {
	if s == SchedSequential {
		return "sequential"
	}
	return "dag"
}

// contextState tracks the once-only lifecycle of Section IV: Init may be
// called once; after Finalize a subsequent Init is not allowed.
type contextState int

const (
	stateUninitialized contextState = iota
	stateActive
	stateFinalized
)

// Stats reports execution-engine counters, used by the execution-model
// benchmarks (EXPERIMENTS.md E6).
type Stats struct {
	OpsEnqueued int64 // operations deferred to the queue
	OpsExecuted int64 // operations actually run
	OpsElided   int64 // operations skipped by dead-store elimination
	Flushes     int64 // queue flushes (Wait or forced completion)

	// Storage-engine counters: dense ⟨+,×⟩ products run on a transient
	// bitmap of B (format.DenseProductWins), and merged views built over a
	// streaming matrix's delta overlay.
	FastKernels       int64
	FormatConversions int64

	// Recovery counters: failures of a kernel the engine chose retried on
	// the reference kernel, output objects rolled back after a failed
	// kernel, and faults injected by the internal/faults plan (including
	// governor denials).
	KernelRetries  int64
	Rollbacks      int64
	FaultsInjected int64

	// Dataflow-scheduler counters: flushes executed on the DAG-parallel
	// path, total DAG nodes scheduled and hazard edges honored across those
	// flushes, and the high-water number of operations ever observed
	// executing simultaneously.
	ParallelFlushes int64
	DagNodes        int64
	DagEdges        int64
	MaxWidth        int64
}

// The execution-engine counters live in the internal/obs metrics registry —
// lock-free atomics bumped from inside kernels and flush workers, outside
// the context lock — and are folded into the Stats snapshot on read. The
// handles below keep the historic short names at their call sites.
var (
	fmtFastOps     = obs.FormatKernels.With("fast")
	fmtConversions = obs.FormatConversions
	// transposeBuilds counts cached-transpose builds apart from the merged
	// views above; mxvPush and mxvPull count what pushOrPull ran.
	transposeBuilds = obs.TransposeBuilds
	mxvPush         = obs.MxVDirection.With("push")
	mxvPull         = obs.MxVDirection.With("pull")
	execRetries     = obs.KernelRetries
	execRollbacks   = obs.Rollbacks
	storesRecycled  = obs.StoresRecycled
	// faultBase is the faults.InjectedCount baseline at the last stats reset,
	// so Stats.FaultsInjected counts per Init/ResetForTesting epoch even
	// though the faults package keeps its own global counter.
	faultBase atomic.Int64
)

func resetEngineStats() {
	obs.ResetEngine()
	faultBase.Store(faults.InjectedCount())
}

// pendingOp is one deferred method in a nonblocking sequence.
type pendingOp struct {
	out        *obj
	reads      []*obj
	overwrites bool // completely determines out's new content without reading its old content
	run        func() error
	name       string
	// pos is the operation's zero-based position in its sequence, in program
	// order, for the per-sequence error log.
	pos int
	// span is the operation's observability record, nil when no tracer is
	// registered (every obs.Span method is nil-safe).
	span *obs.Span
}

// context is the GraphBLAS execution context. The paper defines exactly one
// per program, created by GrB_init; this binding mirrors that with a
// package-level context — and, as an extension, lets a host embed additional
// independent contexts (Instance) so horizontally sharded deployments give
// every shard its own queue, scheduler, and flush lock. Objects bind to the
// context they were created in; operations route through their output's
// context, so two instances never serialize against each other.
type context struct {
	mu       sync.Mutex
	state    contextState
	mode     Mode
	queue    []*pendingOp
	execErr  error
	lastMsg  string
	elision  bool      // dead-store elimination enabled (default true)
	sched    Scheduler // nonblocking flush strategy (default SchedDag)
	reinitOK bool      // testing escape hatch

	// Per-sequence error log (Section V records only the first error of a
	// sequence in GrB_error; the log keeps all of them, with op names and
	// positions). A sequence opens at the first operation after the previous
	// flush completed and closes when the sequence terminates (Wait, a forced
	// completion, or Finalize); seqDone retains the last closed sequence's
	// log so it stays inspectable after Wait returns.
	errLog  []SequenceError
	seqDone []SequenceError
	seqOpen bool
	seqPos  int
}

var global context

// idCounter hands out object identities for the dependence tracking of the
// nonblocking engine.
var idCounter atomic.Uint64

func nextID() uint64 { return idCounter.Add(1) }

// Init establishes the GraphBLAS context in the given mode (GrB_init). Per
// Section IV it may be called only once in the execution of a program, and
// not again after Finalize.
func Init(mode Mode) error {
	global.mu.Lock()
	defer global.mu.Unlock()
	switch global.state {
	case stateActive:
		return errf(InvalidValue, "Init", "context already initialized")
	case stateFinalized:
		if !global.reinitOK {
			return errf(InvalidValue, "Init", "context finalized; re-initialization is not allowed")
		}
	}
	if mode != Blocking && mode != NonBlocking {
		return errf(InvalidValue, "Init", "unknown mode %d", int(mode))
	}
	global.state = stateActive
	global.mode = mode
	global.queue = nil
	global.execErr = nil
	global.lastMsg = ""
	global.elision = true
	global.sched = SchedDag
	global.errLog = nil
	global.seqDone = nil
	global.seqOpen = false
	global.seqPos = 0
	resetEngineStats()
	return nil
}

// Finalize terminates the GraphBLAS context (GrB_finalize), completing any
// pending sequence first. The context cannot be re-initialized afterwards.
func Finalize() error {
	global.mu.Lock()
	defer global.mu.Unlock()
	if global.state != stateActive {
		return errf(UninitializedContext, "Finalize", "context not initialized")
	}
	obs.Flushes.Inc()
	err := global.flushLocked(nil)
	global.state = stateFinalized
	return err
}

// ResetForTesting returns the context to its pristine uninitialized state,
// discarding any pending operations. It exists so test suites and
// long-running hosts can run multiple Init/Finalize cycles; it is not part
// of the paper's API, which forbids re-initialization.
func ResetForTesting() {
	global.mu.Lock()
	defer global.mu.Unlock()
	global.state = stateUninitialized
	global.queue = nil
	global.execErr = nil
	global.lastMsg = ""
	global.elision = true
	global.sched = SchedDag
	global.reinitOK = true
	global.errLog = nil
	global.seqDone = nil
	global.seqOpen = false
	global.seqPos = 0
	resetEngineStats()
}

// CurrentMode reports the context mode.
func CurrentMode() Mode {
	global.mu.Lock()
	defer global.mu.Unlock()
	return global.mode
}

// SetElision toggles the nonblocking engine's dead-store elimination and
// returns the previous setting. Used by the E6 ablation benchmarks.
func SetElision(on bool) bool {
	global.mu.Lock()
	defer global.mu.Unlock()
	prev := global.elision
	global.elision = on
	return prev
}

// SetScheduler selects the nonblocking flush strategy and returns the
// previous one. SchedDag (the default) runs independent queued operations
// concurrently; SchedSequential restores the strict program-order drain,
// for ablation benchmarks and debugging.
func SetScheduler(s Scheduler) Scheduler {
	global.mu.Lock()
	defer global.mu.Unlock()
	prev := global.sched
	global.sched = s
	return prev
}

// CurrentScheduler reports the nonblocking flush strategy.
func CurrentScheduler() Scheduler {
	global.mu.Lock()
	defer global.mu.Unlock()
	return global.sched
}

// StatsSnapshot returns a consistent snapshot of the execution-engine
// counters, now derived entirely from the internal/obs metrics registry (the
// Stats struct remains the stable programmatic view; the registry adds the
// Prometheus/expvar exports on top of the same instruments). Taken under the
// context lock so a snapshot after Wait sees every counter the flush folded.
func StatsSnapshot() Stats {
	global.mu.Lock()
	defer global.mu.Unlock()
	s := Stats{
		OpsEnqueued:       obs.OpsEnqueued.Total(),
		OpsExecuted:       obs.OpsExecuted.Total() + obs.OpsFailed.Total(),
		OpsElided:         obs.OpsElided.Value(),
		Flushes:           obs.Flushes.Value(),
		FastKernels:       fmtFastOps.Value(),
		FormatConversions: fmtConversions.Value(),
		KernelRetries:     execRetries.Value(),
		Rollbacks:         execRollbacks.Value(),
		ParallelFlushes:   obs.ParallelFlushes.Value(),
		DagNodes:          obs.DagNodes.Value(),
		DagEdges:          obs.DagEdges.Value(),
		MaxWidth:          obs.DagWidth.Value(),
	}
	// faults.Configure/Reset zero the package counter independently of the
	// stats epoch; a counter below the baseline means the plan was
	// reconfigured since the epoch started, so the baseline is stale.
	n, b := faults.InjectedCount(), faultBase.Load()
	if n < b {
		b = 0
		faultBase.Store(0)
	}
	s.FaultsInjected = n - b
	return s
}

// GetStats is an alias for StatsSnapshot, kept for source compatibility.
func GetStats() Stats { return StatsSnapshot() }

// LastError returns the additional error information of the most recent
// execution error (the GrB_error() string), or "" if none.
func LastError() string {
	global.mu.Lock()
	defer global.mu.Unlock()
	return global.lastMsg
}

// checkActive verifies the context is initialized.
func checkActive(op string) error {
	global.mu.Lock()
	defer global.mu.Unlock()
	if global.state != stateActive {
		return errf(UninitializedContext, op, "call Init before any GraphBLAS method")
	}
	return nil
}

// Wait terminates the current sequence (GrB_wait): all pending operations
// complete, and the first execution error encountered in the sequence, if
// any, is returned.
func Wait() error { return WaitContext(nil) }

// WaitContext is Wait bounded by a caller context (extension): the flush
// honors ctx's deadline and cancellation. Operations already executing when
// ctx fires run to completion — a kernel is never interrupted mid-write — but
// operations not yet dispatched are abandoned with a Canceled execution
// error: they land in the sequence error log in program order, their output
// objects become invalid-but-restorable (a later full overwrite
// rehabilitates them, exactly as after a kernel failure), and the
// program-order-first error of the sequence is returned.
//
// The queue is shared by every goroutine enqueueing against this context
// (the paper has one context per program), so cancellation is flush-scoped,
// not caller-scoped: a deadline expiring here may abandon operations another
// goroutine enqueued. Callers interleaving sequences under deadlines should
// treat a Canceled/InvalidObject result as transient and rebuild their
// outputs — the serving layer's retry machinery does exactly that.
//
// A nil ctx (or one that can never be canceled) makes this identical to
// Wait.
func WaitContext(ctx stdctx.Context) error { return global.waitContext(ctx) }

// waitContext is the context-scoped body of Wait/WaitContext.
func (c *context) waitContext(ctx stdctx.Context) error {
	c.mu.Lock()
	if c.state != stateActive {
		c.mu.Unlock()
		return errf(UninitializedContext, "Wait", "call Init before any GraphBLAS method")
	}
	obs.Flushes.Inc()
	err := c.flushLocked(ctx)
	c.mu.Unlock()
	return err
}

// flushLocked drains the queue, applying dead-store elimination first, then
// executing the surviving operations — on the DAG-parallel scheduler when
// it is selected and can pay off, else strictly sequentially in program
// order. Either way the observable outcome is identical: every failure is
// appended to the sequence error log in program order, and only the
// program-order-first error becomes the flush's return value and the
// GrB_error string, per Section V. A non-nil ctx bounds the flush
// (WaitContext): once it is canceled, undispatched operations are abandoned
// with a Canceled error instead of executing. Caller holds c.mu.
func (c *context) flushLocked(ctx stdctx.Context) error {
	queue := c.queue
	c.queue = nil
	obs.QueueDepth.Set(0)
	if len(queue) == 0 {
		c.closeSeqLocked()
		return c.takeExecErrLocked()
	}
	obs.FlushDepth.Observe(float64(len(queue)))
	elide := markElidable(queue, c.elision)
	nodes := queue[:0]
	for k, op := range queue {
		if elide[k] {
			obs.OpsElided.Inc()
			op.span.Finish(obs.OutcomeElided, nil)
			obs.Emit(op.span)
			continue
		}
		nodes = append(nodes, op)
	}
	var results []error
	if c.sched == SchedDag && len(nodes) > 1 && parallel.MaxWorkers() > 1 {
		results = c.runQueueDag(ctx, nodes)
	} else {
		results = make([]error, len(nodes))
		for i, op := range nodes {
			if ctx != nil && ctx.Err() != nil {
				results[i] = cancelOp(op, nil, 0, ctx.Err())
				continue
			}
			results[i] = runOp(op)
		}
	}
	// Fold the per-operation outcomes in program order: nodes is ordered by
	// queue position, so the error log and first-error selection come out
	// exactly as a sequential drain would produce them.
	for i, op := range nodes {
		if err := results[i]; err != nil {
			c.errLog = append(c.errLog, SequenceError{Pos: op.pos, Op: op.name, Err: err})
			if c.execErr == nil {
				c.execErr = err
				c.lastMsg = err.Error()
			}
		}
	}
	if c.execErr == nil {
		// A clean flush supersedes any stale GrB_error string.
		c.lastMsg = ""
	}
	c.closeSeqLocked()
	return c.takeExecErrLocked()
}

// beginOpLocked assigns the next program-order position in the current
// sequence, opening a fresh sequence (and clearing the previous log) if the
// last one has terminated. Caller holds c.mu.
func (c *context) beginOpLocked() int {
	if !c.seqOpen {
		c.seqOpen = true
		c.seqPos = 0
		c.errLog = nil
	}
	pos := c.seqPos
	c.seqPos++
	return pos
}

// closeSeqLocked terminates the current sequence, retiring its error log to
// seqDone so it remains inspectable after Wait returns. Caller holds c.mu.
func (c *context) closeSeqLocked() {
	if !c.seqOpen {
		return
	}
	c.seqOpen = false
	c.seqPos = 0
	c.seqDone = c.errLog
	c.errLog = nil
}

// SequenceErrors returns the execution error log of the current sequence,
// or, if no sequence is open, of the most recently terminated one. Wait
// reports only the first error; this exposes all of them with op names and
// program-order positions.
func SequenceErrors() []SequenceError {
	global.mu.Lock()
	defer global.mu.Unlock()
	log := global.errLog
	if !global.seqOpen {
		log = global.seqDone
	}
	return append([]SequenceError(nil), log...)
}

// takeExecErrLocked returns and clears the recorded execution error.
func (c *context) takeExecErrLocked() error {
	err := c.execErr
	c.execErr = nil
	return err
}

// markElidable performs the backward dead-store-elimination pass: an
// operation whose output is completely overwritten by a later operation,
// with no intervening read of that object, need not execute. This is the
// lazy-evaluation freedom Section IV grants nonblocking mode ("methods may
// be placed in a queue and deferred... as long as the final result agrees
// with the mathematical definition"). Elided operations never reach the
// dataflow DAG: they are pruned here, so the scheduler sees only work that
// will actually run. The walk is backward, since an op's fate depends on what
// later operations do with its output.
func markElidable(queue []*pendingOp, enabled bool) []bool {
	elide := make([]bool, len(queue))
	if !enabled {
		return elide
	}
	// deadUntilRead[id] is true when a later op fully overwrites the object
	// and nothing in between reads it.
	dead := make(map[uint64]bool)
	for k := len(queue) - 1; k >= 0; k-- {
		op := queue[k]
		if dead[op.out.id] {
			elide[k] = true
			continue // an elided op neither reads nor writes
		}
		readsOwnOutput := false
		for _, r := range op.reads {
			dead[r.id] = false
			if r == op.out {
				readsOwnOutput = true
			}
		}
		if op.overwrites && !readsOwnOutput {
			dead[op.out.id] = true
		} else {
			// The op reads its own output — either through an accumulator/
			// merge-mode mask or because an input argument aliases the
			// output — so the prior content is live.
			dead[op.out.id] = false
		}
	}
	return elide
}

// runOp validates object states and executes one operation transactionally —
// the sequential form of runOpAt (no fault-draw gate needed when operations
// run one at a time).
func runOp(op *pendingOp) error {
	return runOpAt(op, nil, 0, false)
}

// runOpAt validates object states and executes one operation transactionally.
// An input in an invalid state (from a prior execution error) propagates
// invalidity to the output, per Section V — under the DAG scheduler this *is*
// the cancellation mechanism: a failed op marks its output invalid, every
// dependent observes the invalid input when its hazard edges release it, and
// short-circuits with the same InvalidObject error a sequential drain logs,
// while independent chains never see it and complete. Before the kernel runs,
// the output object's committed store is snapshotted; if the kernel fails or
// panics, the store is rolled back, so the output is *invalid but
// restorable* — it holds exactly its prior committed contents, never a
// half-written result, and a later full overwrite rehabilitates it. If it
// succeeds, the snapshot is the last reference to the superseded store, and
// dropping it recycles the store's values (Vector.snapshotState).
//
// gate (nil when no fault plan is installed) orders fault-plan draws from
// concurrently executing operations by program position idx, keeping the
// injection schedule identical to a sequential drain. Every return path
// releases the gate — including short circuits, which never reach the
// injection site and so must not strand later positions. With serialBody
// set (the plan can match kernel-internal sites), the gate is held across
// the whole operation body, serializing execution in program order while
// still exercising the DAG machinery.
func runOpAt(op *pendingOp, gate *faults.Sequencer, idx int, serialBody bool) error {
	op.span.MarkScheduled()
	if serialBody {
		gate.Wait(idx)
	}
	// Idempotent: a no-op on the paths that already released.
	defer gate.Release(idx)
	for _, r := range op.reads {
		if r.err != nil {
			err := errf(InvalidObject, op.name, "input object invalid from a previous execution error: %v", r.err)
			op.out.err = err
			return failOp(op, obs.OutcomeShortCircuit, err)
		}
	}
	if op.out.err != nil && !op.overwrites {
		// Reading an invalid output (merge/accumulate) is also an error; a
		// full overwrite rehabilitates the object.
		err := errf(InvalidObject, op.name, "output object invalid from a previous execution error: %v", op.out.err)
		return failOp(op, obs.OutcomeShortCircuit, err)
	}
	var settle func(bool)
	if op.out.snapshot != nil {
		settle = op.out.snapshot()
	}
	op.span.MarkKernel()
	if err := runGuardedAt(op, gate, idx, serialBody); err != nil {
		if settle != nil {
			settle(false)
			execRollbacks.Add(1)
			op.span.NoteRollback()
		}
		op.out.err = err
		return failOp(op, obs.OutcomeError, err)
	}
	if settle != nil {
		settle(true)
	}
	op.out.err = nil
	obs.OpsExecuted.With(op.name).Inc()
	op.span.Finish(obs.OutcomeOK, nil)
	obs.Emit(op.span)
	return nil
}

// failOp records an operation's failure in the metrics and its span, then
// returns err for the caller's error-log fold.
func failOp(op *pendingOp, outcome obs.Outcome, err error) error {
	obs.OpsFailed.With(op.name).Inc()
	op.span.Finish(outcome, err)
	obs.Emit(op.span)
	return err
}

// runGuardedAt executes an operation's kernel, converting panics (e.g. from a
// faulty user-defined operator, or an injected fault) into the matching
// execution error — GrB_PANIC with a trimmed stack naming the faulty frame,
// or GrB_OUT_OF_MEMORY for allocation faults — rather than crashing the
// sequence. It is also the executor-level fault-injection site, keyed by the
// method name, so a plan can fail whole operations deterministically in
// either execution mode. Under the DAG scheduler the draw is gated on
// program position; unless the whole body is serialized, the gate is
// released right after the draw so later operations' kernels may overlap
// this one's.
func runGuardedAt(op *pendingOp, gate *faults.Sequencer, idx int, serialBody bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredError(op.name, r)
		}
	}()
	f := func() *faults.Fault {
		if !serialBody {
			gate.Wait(idx)
			// Deferred so an injected PanicFault releases before unwinding
			// to the recover above.
			defer gate.Release(idx)
		}
		return faults.Check(op.name)
	}()
	if f != nil {
		return faultError(op.name, f)
	}
	return op.run()
}

// enqueue is the single entry point operations use after passing their API
// checks (opSpec.check, or an object method's own). In blocking mode the
// operation runs immediately; in nonblocking mode it is appended to the
// sequence queue. Everything the scheduler needs — the read footprint, the
// overwrite flag and the span — derives from the spec; run is the one
// closure the operation supplies.
func enqueue(s opSpec, run func() error) error {
	op := &pendingOp{out: s.out, reads: s.footprint(), overwrites: s.overwrites(), run: run, name: s.name, span: s.span}
	if op.span == nil {
		op.span = obs.Begin(s.name)
	}
	c := op.out.engine()
	c.mu.Lock()
	if c.state != stateActive {
		c.mu.Unlock()
		return errf(UninitializedContext, s.name, "call Init before any GraphBLAS method")
	}
	op.pos = c.beginOpLocked()
	op.span.SetPos(op.pos)
	if c.mode == Blocking {
		// Run outside the context lock: the paper permits concurrent
		// sequences in distinct threads (sharing only read-only objects),
		// and blocking-mode execution must not serialize them globally.
		c.mu.Unlock()
		err := runOp(op)
		c.mu.Lock()
		if err != nil {
			c.errLog = append(c.errLog, SequenceError{Pos: op.pos, Op: s.name, Err: err})
			c.lastMsg = err.Error()
		} else {
			// A successful operation supersedes the previous error: the
			// GrB_error string describes the *most recent* method outcome.
			c.lastMsg = ""
		}
		c.mu.Unlock()
		return err
	}
	c.queue = append(c.queue, op)
	obs.OpsEnqueued.With(s.name).Inc()
	obs.QueueDepth.Set(int64(len(c.queue)))
	c.mu.Unlock()
	return nil
}

// force completes every pending operation of this context because a method
// is about to read values out of an opaque object (Section IV: such methods
// may not defer). It returns the first execution error of the flushed
// sequence.
func (c *context) force(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != stateActive {
		return errf(UninitializedContext, name, "call Init before any GraphBLAS method")
	}
	if len(c.queue) == 0 {
		return c.takeExecErrLocked()
	}
	obs.Flushes.Inc()
	return c.flushLocked(nil)
}
