package core

import stdctx "context"

// Instance is an independently scheduled GraphBLAS execution context — the
// engine-instance extension behind horizontal sharding. The paper's Section
// IV defines exactly one context per program (Init/Finalize); an Instance
// embeds an additional, fully isolated context beside it: its own nonblocking
// queue, hazard-DAG scheduler state, flush lock, and sequence error log.
// Objects created with NewMatrixIn/NewVectorIn bind to the instance, and
// every operation whose output is instance-bound enqueues, flushes, and
// reports errors entirely within it.
//
// Isolation is the point: two instances never serialize against each other's
// flush lock, so a row-sharded deployment (internal/shard) gets realized
// shard-level parallelism, and a deadline expiring in one shard's flush can
// only abandon operations of that shard — the blast radius of WaitContext
// cancellation shrinks from the whole process to one instance.
//
// Instances live inside the program-wide lifecycle: creating one requires the
// global context to be active (Init has been called), mirroring how shards
// live inside a serving process. Mixing operands from different instances
// (or an instance and the global context) in one operation is an InvalidValue
// error — cross-shard dataflow must go through values, not shared objects.
type Instance struct {
	c context
}

// NewInstance creates an isolated execution context in the given mode. The
// instance inherits the global context's current scheduler selection, so an
// ablation run (SetScheduler(SchedSequential)) governs sharded engines too.
func NewInstance(mode Mode) (*Instance, error) {
	if err := checkActive("NewInstance"); err != nil {
		return nil, err
	}
	if mode != Blocking && mode != NonBlocking {
		return nil, errf(InvalidValue, "NewInstance", "unknown mode %d", int(mode))
	}
	in := &Instance{}
	in.c.state = stateActive
	in.c.mode = mode
	in.c.elision = true
	in.c.sched = CurrentScheduler()
	return in, nil
}

// Wait terminates the instance's current sequence: all pending operations
// complete and the program-order-first execution error is returned.
func (in *Instance) Wait() error { return in.c.waitContext(nil) }

// WaitContext is Wait bounded by a caller context; semantics match the
// package-level WaitContext, but cancellation is scoped to this instance's
// queue — operations pending in other instances or in the global context are
// untouched.
func (in *Instance) WaitContext(ctx stdctx.Context) error { return in.c.waitContext(ctx) }

// SequenceErrors returns the instance's per-sequence execution error log;
// see the package-level SequenceErrors.
func (in *Instance) SequenceErrors() []SequenceError {
	in.c.mu.Lock()
	defer in.c.mu.Unlock()
	log := in.c.errLog
	if !in.c.seqOpen {
		log = in.c.seqDone
	}
	return append([]SequenceError(nil), log...)
}

// NewMatrixIn creates an nrows-by-ncols matrix bound to the instance: all of
// its deferred operations enqueue to — and flush with — that instance alone.
func NewMatrixIn[D any](in *Instance, nrows, ncols int) (*Matrix[D], error) {
	if in == nil {
		return nil, errf(UninitializedObject, "NewMatrixIn", "nil instance")
	}
	m, err := NewMatrix[D](nrows, ncols)
	if err != nil {
		return nil, err
	}
	m.obj.ctx = &in.c
	return m, nil
}

// BuildMatrixIn creates an nrows-by-ncols matrix holding the given tuples,
// duplicates combined with dup — NewMatrixIn followed by Build — bound to
// in, or to the program's context when in is nil. Unlike Build on a matrix
// made beforehand it forces nothing: no pending operation can involve an
// object that does not exist yet, so other callers' work stays queued, and
// keeps its errors, until they complete it themselves.
func BuildMatrixIn[D any](in *Instance, nrows, ncols int, rows, cols []int, values []D, dup BinaryOp[D, D, D]) (*Matrix[D], error) {
	const op = "BuildMatrixIn"
	if err := checkActive(op); err != nil {
		return nil, err
	}
	if nrows <= 0 || ncols <= 0 {
		return nil, errf(InvalidValue, op, "dimensions must be positive, got %dx%d", nrows, ncols)
	}
	if err := checkTuples(op, nrows, ncols, rows, cols, values); err != nil {
		return nil, err
	}
	built, err := buildTuples(op, nrows, ncols, rows, cols, values, dup)
	if err != nil {
		return nil, err
	}
	m := &Matrix[D]{nr: nrows, nc: ncols, data: built}
	m.initMatrix()
	if in != nil {
		m.obj.ctx = &in.c
	}
	return m, nil
}

// NewVectorIn creates a size-n vector bound to the instance; see NewMatrixIn.
func NewVectorIn[D any](in *Instance, n int) (*Vector[D], error) {
	if in == nil {
		return nil, errf(UninitializedObject, "NewVectorIn", "nil instance")
	}
	v, err := NewVector[D](n)
	if err != nil {
		return nil, err
	}
	v.obj.ctx = &in.c
	return v, nil
}
