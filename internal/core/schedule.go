package core

// The DAG-parallel flush path: internal/dataflow supplies the hazard-graph
// construction and the ready-node loop, which the flushing goroutine runs
// itself, starting a helper only for a node left ready while it is busy;
// this file adapts the pending-op queue to it and folds the concurrent
// outcomes back into the context's sequential observable state (error log,
// first error, stats).
//
// Concurrency contract. The flushing goroutine holds global.mu for the whole
// flush, exactly as the sequential drain does; an operation, whether the
// flushing goroutine or a helper runs it, never touches the context.
// Everything an operation does is safe under the hazard edges:
//
//   - object stores and caches are guarded by the per-object mutex
//     (Matrix.mu / Vector.mu), so a reader and the independent producer of
//     some other object can overlap freely;
//   - obj.err and the snapshot/restore pair are plain state, but any two
//     operations touching the same object are ordered by a RAW/WAW/WAR edge,
//     and the scheduler's internal lock turns edge order into happens-before;
//   - format and recovery counters are package atomics;
//   - fault-plan draws are ordered by a faults.Sequencer so the injection
//     schedule stays identical to a sequential drain (see runOpAt).

import (
	stdctx "context"
	"slices"

	"graphblas/internal/dataflow"
	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/pool"
)

// flushObjects numbers the objects one flush refers to densely, once: op
// k of the queue writes object ids[at[k]] and reads ids[at[k]+1:at[k+1]],
// numbers below count. Elision and the DAG build index slices by these
// numbers instead of hashing object identities. Both lists come from the
// pool; release returns them.
type flushObjects struct {
	ids, at []int
	count   int
}

func numberObjects(queue []pendingOp) flushObjects {
	refs := 0
	for k := range queue {
		refs += 1 + queue[k].reads.n
	}
	f := flushObjects{ids: pool.GetInts(refs), at: pool.GetInts(len(queue) + 1)}
	for k := range queue {
		op := &queue[k]
		p := f.at[k]
		f.ids[p] = int(op.out.id)
		for j, r := range op.reads.list() {
			f.ids[p+1+j] = int(r.id)
		}
		f.at[k+1] = p + 1 + op.reads.n
	}
	f.count = dataflow.Number(f.ids)
	return f
}

func (f flushObjects) release() {
	pool.PutInts(f.at)
	pool.PutInts(f.ids)
}

// opMetas projects the runnable operations onto the dataflow package's
// semantics-free footprint triples, preserving order: node i is nodes[i],
// queue position from[i] in the numbering objs. The triples and their
// reads are the context's buffers, reused from flush to flush; every
// node's reads are a window of one array.
func (c *context) opMetas(nodes []*pendingOp, from []int, objs flushObjects) []dataflow.OpMeta {
	reads := 0
	for _, k := range from {
		reads += objs.at[k+1] - objs.at[k] - 1
	}
	metas := slices.Grow(c.metas[:0], len(nodes))[:len(nodes)]
	backing := slices.Grow(c.metaReads[:0], reads)[:reads]
	c.metas, c.metaReads = metas, backing
	for i, op := range nodes {
		ids := objs.ids[objs.at[from[i]]:objs.at[from[i]+1]]
		r := backing[: len(ids)-1 : len(ids)-1]
		backing = backing[len(ids)-1:]
		for j, id := range ids[1:] {
			r[j] = uint64(id)
		}
		metas[i] = dataflow.OpMeta{Out: uint64(ids[0]), Reads: r, Overwrites: op.overwrites}
	}
	return metas
}

// dagRun is one DAG flush's executor (dataflow.Executor): what the
// scheduler's callbacks read. The context keeps one and fills it per
// flush, so handing it to the scheduler allocates nothing.
type dagRun struct {
	ctx        stdctx.Context
	nodes      []*pendingOp
	results    []error
	gate       *faults.Sequencer
	serialBody bool
}

// Exec runs node i.
func (d *dagRun) Exec(i int) {
	if obs.ProfilingLabels() {
		// The pprof label names the op kind while it executes, so CPU
		// profiles attribute samples to MxM vs Reduce rather than to the
		// flush. Branching here (instead of always calling obs.Do) keeps
		// the disabled path free of the label-closure allocation.
		obs.Do(d.nodes[i].name, func() { d.results[i] = runOpAt(d.nodes[i], d.gate, i, d.serialBody) })
		return
	}
	d.results[i] = runOpAt(d.nodes[i], d.gate, i, d.serialBody)
}

// Stop reports whether the flush's context was canceled.
func (d *dagRun) Stop() bool { return d.ctx != nil && d.ctx.Err() != nil }

// Skip abandons node i, not dispatched because the flush was canceled.
func (d *dagRun) Skip(i int) { d.results[i] = cancelOp(d.nodes[i], d.gate, i, d.ctx.Err()) }

// runQueueDag executes the runnable operations of one flush on the dataflow
// scheduler and stores their outcomes in results, indexed like nodes
// (program order). Caller holds c.mu and folds the results into the error
// log itself, so the observable state — SequenceErrors order, first-error
// selection, the GrB_error string — is byte-identical to a sequential
// drain. A non-nil ctx stops DAG dispatch once it is canceled: undispatched
// nodes are abandoned via cancelOp while running kernels complete. Caller
// guarantees len(nodes) > 1.
func (c *context) runQueueDag(ctx stdctx.Context, nodes []*pendingOp, metas []dataflow.OpMeta, results []error) {
	g := dataflow.Build(metas)
	defer g.Release()
	d := &c.dag
	*d = dagRun{ctx: ctx, nodes: nodes, results: results}
	defer func() { *d = dagRun{} }()
	if faults.Enabled() {
		// A fault plan consumes per-site counters and a shared seeded RNG;
		// draws must happen in program order for the schedule to replay
		// identically to sequential mode. Plans that can reach inside kernel
		// bodies (dotted sites, globs) additionally force the bodies
		// themselves to run one at a time.
		d.gate = faults.NewSequencer(len(nodes))
		d.serialBody = faults.PlanCoversKernelSites()
	}
	rs := g.RunCancelable(parallel.MaxWorkers(), d)
	obs.ParallelFlushes.Inc()
	obs.DagNodes.Add(int64(g.Nodes()))
	obs.DagEdges.Add(int64(g.Edges()))
	obs.DagWidth.SetMax(int64(rs.MaxWidth))
}

// cancelOp abandons an operation whose flush context was canceled before the
// scheduler dispatched it. The output object is marked invalid carrying the
// Canceled error — restorable, like any failed op, by a later full overwrite
// — the span closes with OutcomeCanceled, and the op's fault-draw gate
// position is released so gated later positions are never stranded behind an
// abandoned one. The returned error takes the op's slot in the program-order
// error fold.
func cancelOp(op *pendingOp, gate *faults.Sequencer, idx int, cause error) error {
	gate.Release(idx)
	err := errf(Canceled, op.name, "abandoned before execution: %v", cause)
	op.out.err = err
	obs.OpsCanceled.Inc()
	op.span.Finish(obs.OutcomeCanceled, err)
	obs.Emit(op.span)
	return err
}
