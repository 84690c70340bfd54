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

func numberObjects(queue []*pendingOp) flushObjects {
	refs := 0
	for _, op := range queue {
		refs += 1 + len(op.reads)
	}
	f := flushObjects{ids: pool.GetInts(refs), at: pool.GetInts(len(queue) + 1)}
	for k, op := range queue {
		p := f.at[k]
		f.ids[p] = int(op.out.id)
		for j, r := range op.reads {
			f.ids[p+1+j] = int(r.id)
		}
		f.at[k+1] = p + 1 + len(op.reads)
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
// queue position from[i] in the numbering objs. Every node's reads share
// one backing array.
func opMetas(nodes []*pendingOp, from []int, objs flushObjects) []dataflow.OpMeta {
	reads := 0
	for _, k := range from {
		reads += objs.at[k+1] - objs.at[k] - 1
	}
	metas := make([]dataflow.OpMeta, len(nodes))
	backing := make([]uint64, reads)
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

// runQueueDag executes the runnable operations of one flush on the dataflow
// scheduler and returns their outcomes indexed like nodes (program order).
// Caller holds c.mu and folds the results into the error log itself, so
// the observable state — SequenceErrors order, first-error selection, the
// GrB_error string — is byte-identical to a sequential drain. A non-nil ctx
// stops DAG dispatch once it is canceled: undispatched nodes are abandoned
// via cancelOp while running kernels complete. Caller guarantees
// len(nodes) > 1.
func (c *context) runQueueDag(ctx stdctx.Context, nodes []*pendingOp, metas []dataflow.OpMeta) []error {
	g := dataflow.Build(metas)
	defer g.Release()
	var gate *faults.Sequencer
	serialBody := false
	if faults.Enabled() {
		// A fault plan consumes per-site counters and a shared seeded RNG;
		// draws must happen in program order for the schedule to replay
		// identically to sequential mode. Plans that can reach inside kernel
		// bodies (dotted sites, globs) additionally force the bodies
		// themselves to run one at a time.
		gate = faults.NewSequencer(len(nodes))
		serialBody = faults.PlanCoversKernelSites()
	}
	var stop func() bool
	if ctx != nil && ctx.Done() != nil {
		stop = func() bool { return ctx.Err() != nil }
	}
	results := make([]error, len(nodes))
	rs := g.RunCancelable(parallel.MaxWorkers(), func(i int) {
		if obs.ProfilingLabels() {
			// The pprof label names the op kind while it executes, so CPU
			// profiles attribute samples to MxM vs Reduce rather than to the
			// flush. Branching here (instead of always calling obs.Do) keeps
			// the disabled path free of the label-closure allocation.
			obs.Do(nodes[i].name, func() { results[i] = runOpAt(nodes[i], gate, i, serialBody) })
			return
		}
		results[i] = runOpAt(nodes[i], gate, i, serialBody)
	}, stop, func(i int) {
		results[i] = cancelOp(nodes[i], gate, i, ctx.Err())
	})
	obs.ParallelFlushes.Inc()
	obs.DagNodes.Add(int64(g.Nodes()))
	obs.DagEdges.Add(int64(g.Edges()))
	obs.DagWidth.SetMax(int64(rs.MaxWidth))
	return results
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
