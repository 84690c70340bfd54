package shard

import (
	"cmp"
	"context"
	"sync"

	"graphblas/internal/algorithms"
	"graphblas/internal/builtins"
	"graphblas/internal/core"
	"graphblas/internal/sparse"
)

// Snapshot is one consistent composed read view: every shard's epoch pinned
// at a single acknowledged version. Queries never touch the live streaming
// matrices — they run against the snapshot's per-shard matrices, each
// immutable and shared read-only by every query on it, so a request observes
// one atomic prefix of the acknowledged update stream no matter how the
// writer churns.
type Snapshot struct {
	// Version is the acknowledged store version the composition is keyed by —
	// also the epoch token served to clients (Epoch): a streaming epoch
	// advances only on compaction and per shard, so no epoch counter names
	// the composed state, and equal-sized overlays can differ in content
	// (insert then delete of the same edge), which a size fingerprint would
	// alias.
	Version uint64
	// Epochs records each shard's streaming epoch at pin time.
	Epochs []uint64
	// N is the global vertex-space dimension; NVals the global stored-edge
	// count (sum of per-shard pinned counts — rows partition, so exact).
	N     int
	NVals int

	plan Plan
	// mats are the per-shard pinned LocalRows(s)×N adjacencies, each bound to
	// its shard's engine (insts) — except that a one-shard snapshot exchanges
	// nothing between engines, so its one N×N matrix lives in the
	// coordinator's context, where the query's own vectors are.
	mats  []*core.Matrix[float64]
	insts []*core.Instance

	// Values derived from the snapshot, each computed once on first use and
	// kept for every later query on the same snapshot; a computation that
	// fails or is canceled leaves its field unset, and the next caller
	// retries.
	mu     sync.Mutex
	sym    *core.Matrix[bool]    // global symmetrized pattern
	outdeg *core.Vector[float64] // global out-degrees
	tri    *triangleStats        // triangle count and clustering
}

// triangleStats is what TriangleStats derives.
type triangleStats struct {
	count      int64
	clustering float64
}

// Epoch returns the token a response names its consistent state by.
func (snap *Snapshot) Epoch() uint64 { return snap.Version }

// eachShard runs f once per shard that busy reports work for (every shard
// when busy is nil), concurrently, and returns the first error in shard
// order. An idle shard starts no goroutine.
func eachShard(shards int, busy func(s int) bool, f func(s int) error) error {
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		if busy != nil && !busy(s) {
			continue
		}
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
		snap, err := st.materialize()
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
// snapshot matrices, each bound to its own engine (the coordinator's, with
// one shard). The builds force no engine, so a snapshot never completes —
// or takes the errors of — work other requests left pending.
func (st *Store) materialize() (*Snapshot, error) {
	k := len(st.shards)
	snap := &Snapshot{
		N:      st.cfg.N,
		plan:   st.plan,
		Epochs: make([]uint64, k),
		mats:   make([]*core.Matrix[float64], k),
		insts:  make([]*core.Instance, k),
	}
	nvals := make([]int, k)
	err := eachShard(k, nil, func(i int) error {
		sh := st.shards[i]
		ep, err := sh.m.PinEpoch()
		if err != nil {
			return err
		}
		rows, cols, vals := ep.Tuples()
		inst, nrows := sh.inst, st.plan.LocalRows(sh.id)
		if k == 1 {
			inst, nrows = nil, st.cfg.N
		}
		mat, err := core.BuildMatrixIn(inst, nrows, st.cfg.N, rows, cols, vals, core.NoAccum[float64]())
		if err != nil {
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

// eachShardTuples hands f every shard's pinned tuples in shard order, rows
// translated to global indices (in place: ExtractTuples returns copies).
func (snap *Snapshot) eachShardTuples(f func(rows, cols []int, vals []float64)) error {
	for s, mat := range snap.mats {
		rows, cols, vals, err := mat.ExtractTuples()
		if err != nil {
			return err
		}
		for t, lr := range rows {
			rows[t] = snap.plan.Global(s, lr)
		}
		f(rows, cols, vals)
	}
	return nil
}

// Tuples gathers the composed snapshot's global (row, col, value) triples in
// row-major order — the store's analogue of Matrix.ExtractTuples. Each
// shard's tuples are row-major and the shards own ascending row blocks, so
// concatenating them in shard order is the global order. The differential
// suite uses it to hold every shard count to tuple-level equivalence with
// one shard.
func (snap *Snapshot) Tuples() ([]int, []int, []float64, error) {
	ri := make([]int, 0, snap.NVals)
	ci := make([]int, 0, snap.NVals)
	vv := make([]float64, 0, snap.NVals)
	err := snap.eachShardTuples(func(rows, cols []int, vals []float64) {
		ri = append(ri, rows...)
		ci = append(ci, cols...)
		vv = append(vv, vals...)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return ri, ci, vv, nil
}

// Sym returns the snapshot's global symmetrized, loop-free boolean pattern,
// gathering every shard's pinned tuples (rows translated to global indices)
// and building the pattern in the coordinator's context, so the triangle
// kernel consumes the same matrix at every shard count. Built once per
// snapshot; transient build failures are not cached, the next caller retries.
func (snap *Snapshot) Sym(ctx context.Context) (*core.Matrix[bool], error) {
	snap.mu.Lock()
	defer snap.mu.Unlock()
	return snap.symLocked(ctx)
}

func (snap *Snapshot) symLocked(ctx context.Context) (*core.Matrix[bool], error) {
	if snap.sym != nil {
		return snap.sym, nil
	}
	var si, sj []int
	var sv []bool
	err := snap.eachShardTuples(func(rows, cols []int, _ []float64) {
		for t, g := range rows {
			if g == cols[t] {
				continue
			}
			si = append(si, g, cols[t])
			sj = append(sj, cols[t], g)
			sv = append(sv, true, true)
		}
	})
	if err != nil {
		return nil, err
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

// VxM computes out = inᵀA over the composed snapshot, out a vector in the
// coordinator's context that the caller owns and reuses, so an iterative
// query overwrites the same handles sweep after sweep. The product is
// structural, ⟨+, first⟩: stored weights do not scale it. It is the one step
// of a query that depends on the shard count, and on nothing else. With one
// shard nothing crosses engines: the product is the engine's own deferred
// VxM, run at the caller's next flush. With more, stores move instead of
// tuples: the input's entries are dealt into one store per owning shard
// (scatter), each owner's vector adopts its store and runs its slice of the
// product inside its own engine with the request deadline threaded into
// that engine's flush, the results are moved out of the shards' vectors,
// and out adopts their sum, folded in fixed shard order. Row partitioning
// never splits a per-row product, so a structural query is tuple-exact
// against one shard; only the cross-shard float additions of the fold are
// regrouped. Every store drawn or moved is given back on every error path.
func (snap *Snapshot) VxM(ctx context.Context, out, in *core.Vector[float64]) error {
	if len(snap.mats) == 1 {
		return core.VxM(out, core.NoMaskV, core.NoAccum[float64](), plusFirst, in, snap.mats[0], nil)
	}
	// Flush the coordinator under the deadline, so that reading in's store
	// has nothing left to force.
	if err := core.WaitContext(ctx); err != nil {
		return err
	}
	parts, err := snap.scatterStore(in)
	if err != nil {
		return err
	}
	partials := make([]*sparse.Vec[float64], len(parts))
	err = eachShard(len(parts), func(s int) bool { return parts[s] != nil }, func(s int) (err error) {
		partials[s], err = snap.shardVxM(ctx, s, parts[s])
		return err
	})
	if err != nil {
		release(partials)
		return err
	}
	var sum *sparse.Vec[float64]
	if err := runKernel("shard.VxM", func() { sum = gatherMerge(snap.N, partials) }); err != nil {
		release(partials)
		return err
	}
	if err := core.AdoptStore(out, sum); err != nil {
		sum.Release()
		return err
	}
	return nil
}

// scatterStore deals in's store, read in place, to the owning shards.
func (snap *Snapshot) scatterStore(in *core.Vector[float64]) ([]*sparse.Vec[float64], error) {
	src, err := core.ReadStore(in)
	if err != nil {
		return nil, err
	}
	var parts []*sparse.Vec[float64]
	err = runKernel("shard.VxM", func() { parts = scatter(snap.plan, src) })
	return parts, err
}

// shardVxM runs one shard's slice of inᵀA inside that shard's engine: its
// input vector adopts the dealt store in, one VxM, one flush, and the
// result's store moves out to the caller. It owns in from the call on.
func (snap *Snapshot) shardVxM(ctx context.Context, s int, in *sparse.Vec[float64]) (*sparse.Vec[float64], error) {
	inst := snap.insts[s]
	f, err := core.NewVectorIn[float64](inst, in.N)
	if err != nil {
		in.Release()
		return nil, err
	}
	if err := core.AdoptStore(f, in); err != nil {
		in.Release()
		return nil, cmp.Or(err, core.FreeAll(f))
	}
	part, err := core.NewVectorIn[float64](inst, snap.N)
	if err != nil {
		return nil, cmp.Or(err, core.FreeAll(f))
	}
	if err := core.VxM(part, core.NoMaskV, core.NoAccum[float64](), plusFirst, f, snap.mats[s], nil); err != nil {
		return nil, cmp.Or(err, core.FreeAll(f, part))
	}
	if err := inst.WaitContext(ctx); err != nil {
		return nil, cmp.Or(err, core.FreeAll(f, part))
	}
	out, err := core.TakeStore(part)
	if err != nil {
		return nil, cmp.Or(err, core.FreeAll(f, part))
	}
	if err := core.FreeAll(f, part); err != nil {
		out.Release()
		return nil, err
	}
	return out, nil
}

// OutDegrees returns the global out-degree vector in the coordinator's
// context, counted off the shards' pinned rows once per snapshot.
func (snap *Snapshot) OutDegrees(_ context.Context) (*core.Vector[float64], error) {
	snap.mu.Lock()
	defer snap.mu.Unlock()
	if snap.outdeg != nil {
		return snap.outdeg, nil
	}
	counts := make([]float64, snap.N)
	err := snap.eachShardTuples(func(rows, _ []int, _ []float64) {
		for _, g := range rows {
			counts[g]++
		}
	})
	if err != nil {
		return nil, err
	}
	var idx []int
	var deg []float64
	for g, d := range counts {
		if d > 0 {
			idx = append(idx, g)
			deg = append(deg, d)
		}
	}
	outdeg, err := core.NewVector[float64](snap.N)
	if err != nil {
		return nil, err
	}
	if err := outdeg.Build(idx, deg, core.NoAccum[float64]()); err != nil {
		return nil, err
	}
	snap.outdeg = outdeg
	return outdeg, nil
}

// TriangleStats returns the number of triangles in the snapshot's
// symmetrized pattern and its global clustering coefficient (three
// triangles per wedge), computed once per snapshot. The triangle kernel is
// one masked MxM; the wedges come from the undirected degrees.
func (snap *Snapshot) TriangleStats(ctx context.Context) (triangles int64, clustering float64, err error) {
	snap.mu.Lock()
	defer snap.mu.Unlock()
	if snap.tri != nil {
		return snap.tri.count, snap.tri.clustering, nil
	}
	sym, err := snap.symLocked(ctx)
	if err != nil {
		return 0, 0, err
	}
	tri, err := algorithms.TriangleCount(sym)
	if err != nil {
		return 0, 0, err
	}
	// Wedges from undirected degrees: lift the pattern to ones, reduce rows.
	lifted, err := core.NewMatrix[float64](snap.N, snap.N)
	if err != nil {
		return 0, 0, err
	}
	if err := core.ApplyM(lifted, core.NoMask, core.NoAccum[float64](), builtins.CastBoolTo[float64](), sym, nil); err != nil {
		return 0, 0, err
	}
	deg, err := core.NewVector[float64](snap.N)
	if err != nil {
		return 0, 0, err
	}
	if err := core.ReduceMatrixToVector(deg, core.NoMaskV, core.NoAccum[float64](), builtins.PlusMonoid[float64](), lifted, nil); err != nil {
		return 0, 0, err
	}
	if err := core.WaitContext(ctx); err != nil {
		return 0, 0, err
	}
	_, degs, err := deg.ExtractTuples()
	if err != nil {
		return 0, 0, err
	}
	var wedges float64
	for _, d := range degs {
		wedges += d * (d - 1) / 2
	}
	snap.tri = &triangleStats{count: tri}
	if wedges > 0 {
		snap.tri.clustering = 3 * float64(tri) / wedges
	}
	return snap.tri.count, snap.tri.clustering, nil
}
