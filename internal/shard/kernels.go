package shard

import (
	"sort"

	"graphblas/internal/builtins"
	"graphblas/internal/core"
	"graphblas/internal/faults"
	"graphblas/internal/sparse"
	"graphblas/internal/stream"
)

// The coordination kernels — batch routing, vector scatter, partial-result
// gather — run on the sharding coordinator, outside any instance's executor,
// so they contain their own injected faults: runKernel recovers the *Fault
// panic raised by faults.Step / faults.GovernAlloc and surfaces it as the
// matching execution error, exactly the mapping the engine's executor applies
// (OOM → GrB_OUT_OF_MEMORY, everything else → GrB_PANIC). The error class is
// transient, so the serving retry ladder treats a faulted scatter or gather
// like any other recoverable kernel failure.

// runKernel executes one coordination kernel under fault containment.
func runKernel(op string, f func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		fl, ok := r.(*faults.Fault)
		if !ok {
			panic(r)
		}
		if fl.Kind == faults.OOM {
			err = &core.Error{Info: core.OutOfMemory, Op: op, Msg: fl.Error()}
			return
		}
		err = &core.Error{Info: core.PanicInfo, Op: op, Msg: "unknown internal error: " + fl.Error()}
	}()
	f()
	return nil
}

// routeBatch deals one logical update batch into per-shard sub-batches by
// source row. Visiting preserves program order, so each sub-batch keeps the
// last-wins semantics of the whole; entries land only in owning shards, so
// the union of sub-batches is exactly the original batch.
func routeBatch(p Plan, b *stream.Batch[float64]) []*stream.Batch[float64] {
	faults.Step("shard.kernel.route")
	subs := make([]*stream.Batch[float64], p.Shards)
	b.Each(func(i, j int, v float64, del bool) {
		s := p.Owner(i)
		if subs[s] == nil {
			subs[s] = stream.NewBatch[float64]()
		}
		if del {
			subs[s].Delete(p.Local(i), j)
		} else {
			subs[s].Insert(p.Local(i), j, v)
		}
	})
	return subs
}

// scatterTuples deals a global vector's ascending tuples to the owning
// shards, indices translated to shard-local rows (both strategies keep them
// ascending) — the scatter half of the sharded VxM. Under a Block plan each
// shard owns one contiguous run of the tuples, cut at its exact size; its
// values are the run of vals itself.
func scatterTuples(p Plan, idx []int, vals []float64) []*sparse.Vec[float64] {
	faults.Step("shard.kernel.scatter")
	parts := make([]*sparse.Vec[float64], p.Shards)
	for s := range parts {
		parts[s] = sparse.NewVec[float64](p.LocalRows(s))
	}
	if p.Strategy == Block {
		lo := 0
		for s, part := range parts {
			hi := lo + sort.SearchInts(idx[lo:], p.bounds[s+1])
			part.Idx = make([]int, hi-lo)
			for t, v := range idx[lo:hi] {
				part.Idx[t] = v - p.bounds[s]
			}
			part.Val = vals[lo:hi:hi]
			lo = hi
		}
		return parts
	}
	for t, v := range idx {
		part := parts[p.Owner(v)]
		part.Idx = append(part.Idx, p.Local(v))
		part.Val = append(part.Val, vals[t])
	}
	return parts
}

// gatherMerge adds per-shard partial result vectors, in ascending shard order
// — the fixed combine order that makes cross-shard float summation
// deterministic run to run. The governor is charged for the partials being
// folded, so an oversized gather fails with OOM before the accumulation, like
// any engine allocation.
func gatherMerge(parts []*sparse.Vec[float64]) *sparse.Vec[float64] {
	faults.Step("shard.kernel.gather")
	var bytes int64
	for _, p := range parts {
		bytes += int64(p.NVals()) * 16
	}
	faults.GovernAlloc("shard.alloc.partial", bytes)
	sum := parts[0]
	for _, p := range parts[1:] {
		next := sparse.VecUnion(sum, p, plus.F, sparse.OpPlus)
		if sum != parts[0] { // an earlier fold's own result
			sum.Release()
		}
		sum = next
	}
	return sum
}

// plus is the predefined + the gather folds with: its opcode runs the
// union's compiled loop.
var plus = builtins.Plus[float64]()
