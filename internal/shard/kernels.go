package shard

import (
	"sort"

	"graphblas/internal/builtins"
	"graphblas/internal/core"
	"graphblas/internal/faults"
	"graphblas/internal/pool"
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

// scatter deals a global vector's entries to the owning shards into stores
// of their own drawn from the pool at their exact size: each shard owns one
// contiguous run of v's entries, its indices translated to shard-local rows
// (still ascending), its values copied once, never aliased, so a part shares
// no array with v and the shard's vector can adopt it. A shard that owns no
// entry gets nil, and one that owns an entry at each of its rows gets a full
// part, whose positions are the shared identity list. It is the scatter half
// of the sharded VxM.
func scatter(p Plan, v *sparse.Vec[float64]) []*sparse.Vec[float64] {
	faults.Step("shard.kernel.scatter")
	parts := make([]*sparse.Vec[float64], p.Shards)
	lo := 0
	for s := range parts {
		hi := lo + sort.SearchInts(v.Idx[lo:], p.bounds[s+1])
		if hi > lo {
			n, idx := p.LocalRows(s), []int(nil)
			if hi-lo < n {
				idx = pool.RawVals[int](hi - lo)
				for t, g := range v.Idx[lo:hi] {
					idx[t] = g - p.bounds[s]
				}
			}
			val := pool.RawVals[float64](hi - lo)
			copy(val, v.Val[lo:hi])
			parts[s] = sparse.PooledVec(n, idx, val)
		}
		lo = hi
	}
	return parts
}

// gatherMerge adds the shards' partial results, nil for a shard that ran
// nothing, in ascending shard order — the fixed combine order that makes
// cross-shard float summation deterministic run to run — into a store of
// size n. The governor is charged for the partials being folded, so an
// oversized gather fails with OOM before the accumulation, like any engine
// allocation. The sum is one of the partials or a store of its own; every
// other partial, and every intermediate fold, is released. A fault leaves
// the partials to the caller; otherwise none is left in parts.
func gatherMerge(n int, parts []*sparse.Vec[float64]) *sparse.Vec[float64] {
	faults.Step("shard.kernel.gather")
	var bytes int64
	for _, p := range parts {
		if p != nil {
			bytes += int64(p.NVals()) * 16
		}
	}
	faults.GovernAlloc("shard.alloc.partial", bytes)
	var sum *sparse.Vec[float64]
	folded := false // sum is a fold's own result, not a partial
	for _, p := range parts {
		switch {
		case p == nil:
		case sum == nil:
			sum = p
		default:
			next := sparse.VecUnion(sum, p, plus.F, sparse.OpPlus)
			if folded {
				sum.Release()
			}
			sum, folded = next, true
		}
	}
	if sum == nil {
		return sparse.NewVec[float64](n)
	}
	if folded {
		release(parts)
	}
	clear(parts) // each is the sum or released
	return sum
}

// release gives back every partial store in parts.
func release(parts []*sparse.Vec[float64]) {
	for s, p := range parts {
		if p != nil {
			p.Release()
			parts[s] = nil
		}
	}
}

// The predefined operators of the sharded product, built once: a generic
// constructor allocates its closures on every call. plus is the + the
// gather folds with (its opcode runs the union's compiled loop), plusFirst
// the structural semiring every VxM runs.
var (
	plus      = builtins.Plus[float64]()
	plusFirst = builtins.PlusFirst[float64]()
)
