package shard

import (
	"context"
	"sort"
	"sync"

	"graphblas/internal/builtins"
	"graphblas/internal/core"
	"graphblas/internal/sparse"
)

// Snapshot is one consistent composed read view: every shard's epoch pinned
// at a single acknowledged version. Queries run against the snapshot's
// per-shard matrices (each immutable, each bound to its shard's engine), so
// a request observes one atomic prefix of the acknowledged update stream no
// matter how the writer churns.
type Snapshot struct {
	// Version is the acknowledged store version the composition is keyed by —
	// also the epoch token served to clients (Epoch), since per-shard epoch
	// counters advance independently and no single one names the composed
	// state.
	Version uint64
	// Epochs records each shard's streaming epoch at pin time.
	Epochs []uint64
	// N is the global vertex-space dimension; NVals the global stored-edge
	// count (sum of per-shard pinned counts — rows partition, so exact).
	N     int
	NVals int

	plan  Plan
	mats  []*core.Matrix[float64] // per-shard pinned LocalRows(s)×N adjacency
	insts []*core.Instance        // the owning engines, for query-side objects

	mu     sync.Mutex
	sym    *core.Matrix[bool]    // lazily gathered global symmetrized pattern
	outdeg *core.Vector[float64] // lazily gathered global out-degrees
}

// Epoch returns the token a response names its consistent state by.
func (snap *Snapshot) Epoch() uint64 { return snap.Version }

// Dims reports the global vertex-space dimension and stored-edge count.
func (snap *Snapshot) Dims() (n, nvals int) { return snap.N, snap.NVals }

// eachShard runs f once per shard, concurrently, and returns the first error
// in shard order.
func eachShard(shards int, f func(s int) error) error {
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = f(s)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns a composed snapshot of the current acknowledged state.
// The second result reports staleness: when the store is frozen by a partial
// ingest failure, a writer keeps tearing the composition, or a shard cannot
// be pinned, the coordinator degrades to the last good composed snapshot
// rather than failing the request. With no fallback the error surfaces for
// the retry layer.
func (st *Store) Snapshot(ctx context.Context) (*Snapshot, bool, error) {
	if ctx != nil && ctx.Err() != nil {
		return st.fallback(ctx.Err())
	}
	var lastErr error
	for attempt := 0; attempt < snapshotAttempts; attempt++ {
		s1 := st.wseq.Load()
		if s1&1 == 1 {
			// A shard-mutating write is in flight; composing now could pin
			// shards on both sides of it.
			lastErr = errTorn("writer in flight")
			continue
		}
		v := st.version.Load()
		st.mu.Lock()
		frozen, cur := st.frozen, st.cur
		st.mu.Unlock()
		if frozen {
			return st.fallback(errTorn("store frozen by partial ingest failure"))
		}
		if cur != nil && cur.Version == v {
			return cur, false, nil
		}
		snap, err := st.materialize(ctx)
		if err != nil {
			return st.fallback(err)
		}
		if st.wseq.Load() != s1 {
			lastErr = errTorn("write landed mid-composition")
			continue
		}
		snap.Version = v
		st.mu.Lock()
		st.cur, st.last = snap, snap
		st.mu.Unlock()
		return snap, false, nil
	}
	return st.fallback(lastErr)
}

// errTorn classifies a torn or blocked composition as InvalidObject — the
// transient "poisoned by concurrent activity" class the retry ladder already
// re-attempts.
func errTorn(msg string) error {
	return &core.Error{Info: core.InvalidObject, Op: "shard.Snapshot", Msg: msg}
}

// materialize pins every shard's epoch concurrently and builds the per-shard
// snapshot matrices, each inside its own engine.
func (st *Store) materialize(ctx context.Context) (*Snapshot, error) {
	k := len(st.shards)
	snap := &Snapshot{
		N:      st.cfg.N,
		plan:   st.plan,
		Epochs: make([]uint64, k),
		mats:   make([]*core.Matrix[float64], k),
		insts:  make([]*core.Instance, k),
	}
	nvals := make([]int, k)
	err := eachShard(k, func(i int) error {
		sh := st.shards[i]
		ep, err := sh.m.PinEpoch()
		if err != nil {
			return err
		}
		rows, cols, vals := ep.Tuples()
		mat, err := core.NewMatrixIn[float64](sh.inst, st.plan.LocalRows(sh.id), st.cfg.N)
		if err != nil {
			return err
		}
		if err := mat.Build(rows, cols, vals, core.NoAccum[float64]()); err != nil {
			return err
		}
		if err := sh.inst.WaitContext(ctx); err != nil {
			return err
		}
		snap.Epochs[i] = ep.ID()
		nvals[i] = ep.NVals()
		snap.mats[i] = mat
		snap.insts[i] = sh.inst
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, nv := range nvals {
		snap.NVals += nv
	}
	return snap, nil
}

// fallback degrades to the last good composed snapshot, or surfaces err.
func (st *Store) fallback(err error) (*Snapshot, bool, error) {
	st.mu.Lock()
	last := st.last
	st.mu.Unlock()
	if last != nil {
		return last, true, nil
	}
	return nil, false, err
}

// globalTuples gathers every shard's pinned tuples in shard order, rows
// translated to global indices.
func (snap *Snapshot) globalTuples() (ri, ci []int, vv []float64, err error) {
	for s, mat := range snap.mats {
		rows, cols, vals, err := mat.ExtractTuples()
		if err != nil {
			return nil, nil, nil, err
		}
		for _, lr := range rows {
			ri = append(ri, snap.plan.Global(s, lr))
		}
		ci = append(ci, cols...)
		vv = append(vv, vals...)
	}
	return ri, ci, vv, nil
}

// Tuples gathers the composed snapshot's global (row, col, value) triples in
// row-major order — the sharded analogue of Matrix.ExtractTuples. The
// differential suite uses it to hold the sharded store to tuple-level
// equivalence with a single engine.
func (snap *Snapshot) Tuples() ([]int, []int, []float64, error) {
	ri, ci, vv, err := snap.globalTuples()
	if err != nil {
		return nil, nil, nil, err
	}
	ord := make([]int, len(ri))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		if ri[ord[a]] != ri[ord[b]] {
			return ri[ord[a]] < ri[ord[b]]
		}
		return ci[ord[a]] < ci[ord[b]]
	})
	sr := make([]int, len(ord))
	sc := make([]int, len(ord))
	sv := make([]float64, len(ord))
	for i, o := range ord {
		sr[i], sc[i], sv[i] = ri[o], ci[o], vv[o]
	}
	return sr, sc, sv, nil
}

// Sym returns the snapshot's global symmetrized, loop-free boolean pattern,
// gathering every shard's pinned tuples (rows translated to global indices)
// and building the pattern in the coordinator's context — the reduction
// pattern sharded stats uses so the triangle kernel consumes exactly the
// matrix a single engine would. Built once per snapshot.
func (snap *Snapshot) Sym(ctx context.Context) (*core.Matrix[bool], error) {
	snap.mu.Lock()
	defer snap.mu.Unlock()
	if snap.sym != nil {
		return snap.sym, nil
	}
	rows, cols, _, err := snap.globalTuples()
	if err != nil {
		return nil, err
	}
	var si, sj []int
	var sv []bool
	for t, g := range rows {
		if g == cols[t] {
			continue
		}
		si = append(si, g, cols[t])
		sj = append(sj, cols[t], g)
		sv = append(sv, true, true)
	}
	sym, err := core.NewMatrix[bool](snap.N, snap.N)
	if err != nil {
		return nil, err
	}
	if err := sym.Build(si, sj, sv, builtins.LOr()); err != nil {
		return nil, err
	}
	if err := core.WaitContext(ctx); err != nil {
		return nil, err
	}
	snap.sym = sym
	return sym, nil
}

// VxM returns inᵀA over the composed snapshot, as a new vector in the
// coordinator's context — the one step of a query that is shard-specific.
// The input's tuples scatter to their owning shards, each owner runs its
// slice of the product inside its own engine with the request deadline
// threaded into that engine's flush, and the partials fold in fixed shard
// order. Row partitioning never splits a per-row product, so a structural
// query is tuple-exact against a single engine; only the cross-shard float
// additions of the fold are regrouped.
func (snap *Snapshot) VxM(ctx context.Context, in *core.Vector[float64]) (*core.Vector[float64], error) {
	// Flush the coordinator under the deadline, so the non-opaque read below
	// has nothing left to force.
	if err := core.WaitContext(ctx); err != nil {
		return nil, err
	}
	idx, vals, err := in.ExtractTuples()
	if err != nil {
		return nil, err
	}
	var parts []*sparse.Vec[float64]
	if err := runKernel("shard.VxM", func() { parts = scatterTuples(snap.plan, idx, vals) }); err != nil {
		return nil, err
	}
	partials := make([]*sparse.Vec[float64], len(parts))
	err = eachShard(len(parts), func(s int) (err error) {
		partials[s] = sparse.NewVec[float64](snap.N)
		if parts[s].NVals() > 0 {
			partials[s].Idx, partials[s].Val, err = snap.shardVxM(ctx, s, parts[s])
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var sum *sparse.Vec[float64]
	if err := runKernel("shard.VxM", func() { sum = gatherMerge(partials) }); err != nil {
		return nil, err
	}
	out, err := core.NewVector[float64](snap.N)
	if err != nil {
		return nil, err
	}
	if err := out.Build(sum.Idx, sum.Val, core.NoAccum[float64]()); err != nil {
		return nil, err
	}
	return out, nil
}

// shardVxM runs one shard's slice of inᵀA inside that shard's engine: one
// Build of the scattered tuples, one VxM, one flush.
func (snap *Snapshot) shardVxM(ctx context.Context, s int, in *sparse.Vec[float64]) ([]int, []float64, error) {
	inst := snap.insts[s]
	f, err := core.NewVectorIn[float64](inst, in.N)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Build(in.Idx, in.Val, core.NoAccum[float64]()); err != nil {
		return nil, nil, err
	}
	part, err := core.NewVectorIn[float64](inst, snap.N)
	if err != nil {
		return nil, nil, err
	}
	if err := core.VxM(part, core.NoMaskV, core.NoAccum[float64](), builtins.PlusTimes[float64](), f, snap.mats[s], nil); err != nil {
		return nil, nil, err
	}
	if err := inst.WaitContext(ctx); err != nil {
		return nil, nil, err
	}
	return part.ExtractTuples()
}

// OutDegrees returns the global out-degree vector in the coordinator's
// context, counted off the gathered tuples once per snapshot.
func (snap *Snapshot) OutDegrees(_ context.Context) (*core.Vector[float64], error) {
	snap.mu.Lock()
	defer snap.mu.Unlock()
	if snap.outdeg != nil {
		return snap.outdeg, nil
	}
	rows, _, _, err := snap.globalTuples()
	if err != nil {
		return nil, err
	}
	// One 1 per stored entry at its row; Build's dup adds them up.
	ones := make([]float64, len(rows))
	for t := range ones {
		ones[t] = 1
	}
	outdeg, err := core.NewVector[float64](snap.N)
	if err != nil {
		return nil, err
	}
	if err := outdeg.Build(rows, ones, builtins.Plus[float64]()); err != nil {
		return nil, err
	}
	snap.outdeg = outdeg
	return outdeg, nil
}
