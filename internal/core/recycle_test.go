package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/sparse"
)

// Tests for store recycling inside a flush.
//
// A program of vector operations over a small pool runs in blocking mode,
// under the nonblocking engine's sequential drain, and under the DAG
// scheduler; every run must leave the same error log and the same committed
// content in every vector, and a run no operation failed in must leave
// exactly what a dense model of the program computes. Operations in one
// flush overwrite vectors that earlier operations of that flush read, so
// the store an operation supersedes — and recycles on commit — may be one
// that a reader ordered before it had just used. After each run the pool is
// churned by kernels drawing arrays of every size class the pool's vectors
// use, which must change no vector: an array recycled while a vector still
// held it is written over, and the difference shows. No vector may hold an
// array on the pool's shelves when its test ends (assertQuiescent).

// recycleOp is one step of a program over a pool of size-recycleDim vectors
// and a fixed recycleDim×recycleDim matrix: dst = op(s1).
type recycleOp struct {
	kind int // see runRecycleBody
	dst  int
	s1   int
}

const (
	recyclePool = 4
	recycleDim  = 6
)

func normalizeRecycleOp(op recycleOp) recycleOp {
	op.kind %= 7
	op.dst %= recyclePool
	op.s1 %= recyclePool
	if op.s1 == op.dst {
		op.s1 = (op.s1 + 1) % recyclePool
	}
	return op
}

// recycleEnv is the prepared object environment a program runs against,
// with the dense model of every vector and of the matrix. The operation
// methods below issue an operation and apply it to the model in program
// order; the model is meaningful only for a run in which nothing failed.
type recycleEnv struct {
	pool  []*Vector[float64]
	mask  *Vector[float64]
	empty *Vector[float64] // no stored entries
	a     *Matrix[float64]
	s     Semiring[float64, float64, float64]
	scale UnaryOp[float64, float64]
	churn *churner

	model  map[*Vector[float64]]map[int]float64
	aModel dmat
}

// write folds the result t of an operation into dst's model through the
// optional mask and accumulator (plus).
func (env *recycleEnv) write(dst, mask *Vector[float64], accum bool, t map[int]float64) {
	stored, eff := map[int]bool{}, map[int]bool{}
	if mask != nil {
		for i, x := range env.model[mask] {
			stored[i] = true
			if x != 0 {
				eff[i] = true
			}
		}
	}
	env.model[dst] = vecOracleWrite(env.model[dst], t, recycleDim, stored, eff, mask != nil, false, accum, false)
}

// apply issues dst⟨mask⟩ (+)= 2·src; a nil mask is no mask.
func (env *recycleEnv) apply(dst, mask *Vector[float64], accum bool, src *Vector[float64]) {
	acc := NoAccum[float64]()
	if accum {
		acc = plusF64()
	}
	if mask == nil {
		_ = ApplyV(dst, NoMaskV, acc, env.scale, src, nil)
	} else {
		_ = ApplyV(dst, mask, acc, env.scale, src, nil)
	}
	t := map[int]float64{}
	for i, x := range env.model[src] {
		t[i] = 2 * x
	}
	env.write(dst, mask, accum, t)
}

// product is the model of A·u, or of Aᵀ·u when tran is set.
func (env *recycleEnv) product(u map[int]float64, tran bool) map[int]float64 {
	t := map[int]float64{}
	for k, a := range env.aModel {
		i, j := k.i, k.j
		if tran {
			i, j = j, i
		}
		if x, ok := u[j]; ok {
			t[i] += a * x
		}
	}
	return t
}

// mxv issues dst⟨mask⟩ = A·src, or Aᵀ·src through the descriptor when
// tran is set.
func (env *recycleEnv) mxv(dst, mask *Vector[float64], src *Vector[float64], tran bool) {
	var desc *Descriptor
	if tran {
		desc = Desc().Transpose0()
	}
	if mask == nil {
		_ = MxV(dst, NoMaskV, NoAccum[float64](), env.s, env.a, src, desc)
	} else {
		_ = MxV(dst, mask, NoAccum[float64](), env.s, env.a, src, desc)
	}
	env.write(dst, mask, false, env.product(env.model[src], tran))
}

// vxm issues dst⟨mask⟩ = srcᵀ·A.
func (env *recycleEnv) vxm(dst, mask *Vector[float64], src *Vector[float64]) {
	if mask == nil {
		_ = VxM(dst, NoMaskV, NoAccum[float64](), env.s, src, env.a, nil)
	} else {
		_ = VxM(dst, mask, NoAccum[float64](), env.s, src, env.a, nil)
	}
	env.write(dst, mask, false, env.product(env.model[src], true))
}

// assign issues dst⟨mask⟩(:) (+)= src.
func (env *recycleEnv) assign(dst, mask *Vector[float64], accum bool, src *Vector[float64]) {
	acc := NoAccum[float64]()
	if accum {
		acc = plusF64()
	}
	if mask == nil {
		_ = AssignVector(dst, NoMaskV, acc, src, nil, nil)
	} else {
		_ = AssignVector(dst, mask, acc, src, nil, nil)
	}
	t := map[int]float64{}
	for i, x := range env.model[src] {
		t[i] = x
	}
	env.write(dst, mask, accum, t)
}

// setElement issues dst(i) = x.
func (env *recycleEnv) setElement(dst *Vector[float64], x float64, i int) {
	_ = dst.SetElement(x, i)
	m := map[int]float64{}
	for k, y := range env.model[dst] {
		m[k] = y
	}
	m[i] = x
	env.model[dst] = m
}

// churner draws recycled arrays of every size class a size-recycleDim
// vector's values can occupy: it holds one source per stored-entry count
// 1..recycleDim and applies each into scratch. It then churns the index
// lists (churnIdx).
type churner struct {
	srcs    []*Vector[float64]
	scratch *Vector[float64]
}

func newChurner(t *testing.T) *churner {
	t.Helper()
	c := &churner{}
	for k := 1; k <= recycleDim; k++ {
		v, err := NewVector[float64](recycleDim)
		if err != nil {
			t.Fatalf("NewVector: %v", err)
		}
		for j := 0; j < k; j++ {
			if err := v.SetElement(float64(k+j), j); err != nil {
				t.Fatalf("churn SetElement: %v", err)
			}
		}
		c.srcs = append(c.srcs, v)
	}
	c.scratch, _ = NewVector[float64](recycleDim)
	return c
}

// run overwrites scratch from every source, twice, and completes it.
func (c *churner) run(t *testing.T) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for _, src := range c.srcs {
			if err := ApplyV(c.scratch, NoMaskV, NoAccum[float64](), scaleOp(-7), src, nil); err != nil {
				t.Fatalf("churn ApplyV: %v", err)
			}
		}
	}
	if err := Wait(); err != nil {
		t.Fatalf("churn Wait: %v", err)
	}
	churnIdx()
}

// vectors lists every vector the churner holds.
func (c *churner) vectors() []*Vector[float64] {
	return append(append([]*Vector[float64](nil), c.srcs...), c.scratch)
}

// recycleRun is the outcome of one run: a printable fingerprint of every
// comparable result (error log, validity and committed content of each pool
// vector) and the number of stores the run recycled.
type recycleRun struct {
	fingerprint string
	recycled    int64
}

// runRecycleProgram executes body in the given mode and scheduler under the
// fault plan, churns the pool, checks the model when nothing failed, and
// fingerprints the result. Every vector the run creates is handed to watch.
func runRecycleProgram(t *testing.T, watch func(...shelvable), mode Mode, sched Scheduler, seed int64, rules []faults.Rule, body func(env *recycleEnv)) recycleRun {
	t.Helper()
	ResetForTesting()
	if err := Init(mode); err != nil {
		t.Fatalf("Init(%v): %v", mode, err)
	}
	SetScheduler(sched)
	if sched == SchedDag {
		prev := parallel.SetMaxWorkers(4)
		defer parallel.SetMaxWorkers(prev)
	}
	defer func() {
		faults.Disable()
		ResetForTesting()
		if err := Init(Blocking); err != nil {
			t.Fatalf("re-Init: %v", err)
		}
	}()
	SetElision(false) // keep per-site call counts aligned across modes

	// Identical environment in every mode, committed before the plan arms.
	rng := rand.New(rand.NewSource(99))
	env := &recycleEnv{
		pool:  make([]*Vector[float64], recyclePool),
		s:     plusTimesF64(t),
		scale: scaleOp(2),
		model: map[*Vector[float64]]map[int]float64{},
	}
	env.a, env.aModel = newTestMatrix(t, rng, recycleDim, recycleDim, 0.5)
	for i := range env.pool {
		v, m := randVecModel(t, rng, recycleDim, 0.6)
		env.pool[i], env.model[v] = v, m
	}
	env.empty, _ = NewVector[float64](recycleDim)
	env.mask, _ = NewVector[float64](recycleDim)
	env.model[env.mask] = map[int]float64{}
	for j := 0; j < recycleDim; j += 2 {
		if err := env.mask.SetElement(1, j); err != nil {
			t.Fatalf("mask SetElement: %v", err)
		}
		env.model[env.mask][j] = 1
	}
	env.churn = newChurner(t)
	if err := Wait(); err != nil {
		t.Fatalf("pool Wait: %v", err)
	}
	// Kernels draw their outputs uncleared (pool.RawVals): with junk on
	// every shelf, one that leaves a kept position unwritten fails the model.
	churnMatShelves()
	recycledBefore := obs.StoresRecycled.Value()

	faults.Configure(seed, rules...)
	body(env)
	waitErr := Wait()
	log := SequenceErrors()
	injected := faults.InjectedCount()

	if mode == NonBlocking {
		if len(log) > 0 && InfoOf(waitErr) != InfoOf(log[0].Err) {
			t.Fatalf("Wait error %v disagrees with log head %v", waitErr, log[0])
		}
		if len(log) == 0 && waitErr != nil {
			t.Fatalf("Wait error %v with empty log", waitErr)
		}
	}

	faults.Disable() // the churn and the fingerprint must not inject
	contents := func() string {
		var sb strings.Builder
		for i, v := range env.pool {
			// Committed contents compare even for invalid objects: rollback
			// guarantees exactly the prior committed state.
			if v.err != nil {
				fmt.Fprintf(&sb, "vec%d invalid class=%v %s\n", i, InfoOf(v.err), vecBits(v))
			} else {
				fmt.Fprintf(&sb, "vec%d valid %s\n", i, vecBits(v))
			}
		}
		return sb.String()
	}
	before := contents()
	for i, v := range env.pool {
		if v.shelved() {
			t.Fatalf("vec%d holds a value array the pool has recycled", i)
		}
	}
	env.churn.run(t)
	after := contents()
	if after != before {
		t.Fatalf("churning the pool changed the vectors\n-- before --\n%s-- after --\n%s", before, after)
	}
	var sb strings.Builder
	for _, e := range log {
		fmt.Fprintf(&sb, "err pos=%d op=%s class=%v\n", e.Pos, e.Op, InfoOf(e.Err))
	}
	sb.WriteString(after)

	// Blocking mode keeps no sequence log, so a failure there shows only as
	// an injection or an invalid vector.
	failed := len(log) > 0 || injected > 0
	for _, v := range env.pool {
		failed = failed || v.err != nil
	}
	if !failed {
		for i, v := range env.pool {
			wantVec(t, v, env.model[v], fmt.Sprintf("%v/%v vec%d", mode, sched, i))
		}
	}
	for _, v := range append(append(env.pool, env.churn.vectors()...), env.mask, env.empty) {
		watch(v)
	}
	return recycleRun{sb.String(), obs.StoresRecycled.Value() - recycledBefore}
}

// runRecycleBody issues a normalized program against the environment.
func runRecycleBody(env *recycleEnv, prog []recycleOp) {
	for _, op := range prog {
		op = normalizeRecycleOp(op)
		dst, u := env.pool[op.dst], env.pool[op.s1]
		switch op.kind {
		case 0: // overwriting apply
			env.apply(dst, nil, false, u)
		case 1: // accumulating apply
			env.apply(dst, nil, true, u)
		case 2: // pull-style mxv
			env.mxv(dst, nil, u, false)
		case 3: // push-style vxm
			env.vxm(dst, nil, u)
		case 4: // full-width accumulating assign
			env.assign(dst, nil, true, u)
		case 5: // masked apply
			env.apply(dst, env.mask, false, u)
		case 6: // mask aliases the source
			env.apply(dst, u, false, u)
		}
	}
}

// recycleTriple runs one program in blocking mode, the sequential drain and
// the DAG scheduler, requires byte identity, and returns the stores the
// three runs recycled together.
func recycleTriple(t *testing.T, label string, seed int64, rules []faults.Rule, body func(env *recycleEnv)) int64 {
	t.Helper()
	watch := assertQuiescent(t)
	blk := runRecycleProgram(t, watch, Blocking, SchedSequential, seed, rules, body)
	seq := runRecycleProgram(t, watch, NonBlocking, SchedSequential, seed, rules, body)
	dag := runRecycleProgram(t, watch, NonBlocking, SchedDag, seed, rules, body)
	if blk.fingerprint != seq.fingerprint {
		t.Fatalf("%s: blocking vs sequential diverged\n-- blocking --\n%s-- sequential --\n%s", label, blk.fingerprint, seq.fingerprint)
	}
	if blk.fingerprint != dag.fingerprint {
		t.Fatalf("%s: blocking vs dag diverged\n-- blocking --\n%s-- dag --\n%s", label, blk.fingerprint, dag.fingerprint)
	}
	return blk.recycled + seq.recycled + dag.recycled
}

// TestRecycle_DifferentialSweep: random vector programs with no fault plan
// compute their model and are byte-identical in every mode with their
// superseded stores recycled, and the sweep as a whole recycles.
func TestRecycle_DifferentialSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	var recycled int64
	for sweep := 0; sweep < 12; sweep++ {
		n := 3 + rng.Intn(6)
		prog := make([]recycleOp, n)
		for i := range prog {
			prog[i] = recycleOp{kind: rng.Intn(7), dst: rng.Intn(recyclePool), s1: rng.Intn(recyclePool)}
		}
		recycled += recycleTriple(t, fmt.Sprintf("sweep %d (prog %v)", sweep, prog), rng.Int63(), nil,
			func(env *recycleEnv) { runRecycleBody(env, prog) })
	}
	if recycled == 0 {
		t.Fatal("differential sweep recycled no store; it is not exercising the free list")
	}
}

// TestRecycle_UnderOpNamePlan: with operations failing in the middle of a
// flush, the stores their outputs get back are the ones they held, never
// ones recycled in the meantime, and every mode agrees.
func TestRecycle_UnderOpNamePlan(t *testing.T) {
	rules := []faults.Rule{
		{Site: "ApplyV", Kind: faults.KernelErr, After: 2},
		{Site: "MxV", Kind: faults.OOM, Every: 2},
		{Site: "AssignVector", Kind: faults.KernelErr, Times: 1},
		{Site: "VxM", Kind: faults.OOM, Prob: 0.5},
	}
	rng := rand.New(rand.NewSource(7))
	sawInjection := false
	for sweep := 0; sweep < 6; sweep++ {
		n := 4 + rng.Intn(5)
		prog := make([]recycleOp, n)
		for i := range prog {
			prog[i] = recycleOp{kind: rng.Intn(7), dst: rng.Intn(recyclePool), s1: rng.Intn(recyclePool)}
		}
		recycleTriple(t, fmt.Sprintf("op-name sweep %d (prog %v)", sweep, prog), rng.Int63(), rules,
			func(env *recycleEnv) { runRecycleBody(env, prog) })
		// InjectedCount was zeroed by the last run's Configure, so a nonzero
		// value here means the plan fired inside that run.
		if faults.InjectedCount() > 0 {
			sawInjection = true
		}
	}
	if !sawInjection {
		t.Fatal("op-name plan never injected; the test is vacuous")
	}
}

// TestRecycle_PairShapes drives producer–consumer shapes explicitly. Pool
// roles: pool[0] = source, pool[1] = intermediate x (and pool[2] = y for
// the chain), pool[3] = refresher. Most shapes overwrite x after its
// consumer in the same flush, so x's store is superseded — and recycled —
// right after an operation ordered before it read it.
func TestRecycle_PairShapes(t *testing.T) {
	apply := func(env *recycleEnv, dst, src int) {
		env.apply(env.pool[dst], nil, false, env.pool[src])
	}
	shapes := []struct {
		name string
		body func(env *recycleEnv)
	}{
		{"apply_apply", func(env *recycleEnv) {
			apply(env, 1, 0)
			apply(env, 2, 1)
			apply(env, 1, 3)
		}},
		{"apply_mxv_dot", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.mxv(env.pool[2], nil, env.pool[1], false)
			apply(env, 1, 3)
		}},
		{"apply_mxv_push", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.mxv(env.pool[2], nil, env.pool[1], true)
			apply(env, 1, 3)
		}},
		{"apply_vxm_push", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.vxm(env.pool[2], nil, env.pool[1])
			apply(env, 1, 3)
		}},
		{"mxv_apply", func(env *recycleEnv) {
			env.mxv(env.pool[1], nil, env.pool[0], false)
			apply(env, 2, 1)
			apply(env, 1, 3)
		}},
		{"mxv_assign_accum", func(env *recycleEnv) {
			env.mxv(env.pool[1], nil, env.pool[0], false)
			env.assign(env.pool[2], nil, true, env.pool[1])
			apply(env, 1, 3)
		}},
		{"apply_assign_noaccum", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.assign(env.pool[2], nil, false, env.pool[1])
			apply(env, 1, 3)
		}},
		{"chain_trio", func(env *recycleEnv) {
			apply(env, 1, 0)
			apply(env, 2, 1)
			env.mxv(env.pool[3], nil, env.pool[2], false)
			apply(env, 1, 0)
			apply(env, 2, 0)
		}},
		{"masked_consumer", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.apply(env.pool[2], env.mask, false, env.pool[1])
			apply(env, 1, 3)
		}},
		{"accum_consumer", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.apply(env.pool[2], nil, true, env.pool[1])
			apply(env, 1, 3)
		}},
		{"masked_producer", func(env *recycleEnv) {
			env.apply(env.pool[1], env.mask, false, env.pool[0])
			apply(env, 2, 1)
			apply(env, 1, 3)
		}},
		{"accum_producer", func(env *recycleEnv) {
			env.apply(env.pool[1], nil, true, env.pool[0])
			apply(env, 2, 1)
			apply(env, 1, 3)
		}},
		{"second_reader", func(env *recycleEnv) {
			apply(env, 1, 0)
			apply(env, 2, 1)
			apply(env, 3, 1) // x has a reader after the consumer, before any refresh
			apply(env, 1, 0)
		}},
		{"escapes_flush", func(env *recycleEnv) {
			apply(env, 1, 0)
			apply(env, 2, 1) // x is never refreshed: its content must survive
		}},
		// The mask and the data operand are the same vector, whose store is
		// superseded right after.
		{"mask_aliases_src_apply", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.apply(env.pool[2], env.pool[1], false, env.pool[1])
			apply(env, 1, 3)
		}},
		{"mask_aliases_src_mxv", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.mxv(env.pool[2], env.pool[1], env.pool[1], false)
			apply(env, 1, 3)
		}},
		{"mask_aliases_src_mxv_push", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.mxv(env.pool[2], env.pool[1], env.pool[1], true)
			apply(env, 1, 3)
		}},
		{"mask_aliases_src_vxm", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.vxm(env.pool[2], env.pool[1], env.pool[1])
			apply(env, 1, 3)
		}},
		{"mask_aliases_src_assign", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.assign(env.pool[2], env.pool[1], true, env.pool[1])
			apply(env, 1, 3)
		}},
		// An operation whose output is also its input reads the store it
		// supersedes.
		{"self_overwrite", func(env *recycleEnv) {
			apply(env, 1, 0)
			apply(env, 1, 1)
			apply(env, 2, 1)
		}},
		{"self_accum", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.apply(env.pool[1], nil, true, env.pool[1])
			env.mxv(env.pool[1], nil, env.pool[1], false)
			apply(env, 2, 1)
		}},
		// Two vectors overwritten from each other, each superseding the store
		// the other just read.
		{"swap_pair", func(env *recycleEnv) {
			apply(env, 1, 0)
			apply(env, 2, 1)
			apply(env, 1, 2)
			apply(env, 2, 1)
		}},
		// Operations that commit without changing their output's content —
		// a point update that only buffers, a mask that allows nothing, an
		// accumulation of nothing — leave a store that is still the vector's
		// own, whichever one that is; it must not be recycled.
		{"point_update_keeps_store", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.setElement(env.pool[1], 3, 1) // x's store stays, under a pending update
			apply(env, 2, 3)
		}},
		{"empty_mask_keeps_store", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.apply(env.pool[1], env.empty, false, env.pool[0])
			apply(env, 2, 1)
		}},
		{"empty_accum_keeps_store", func(env *recycleEnv) {
			apply(env, 1, 0)
			env.assign(env.pool[1], nil, true, env.empty)
			apply(env, 2, 1)
		}},
	}
	var recycled int64
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			recycled += recycleTriple(t, sh.name, 1, nil, sh.body)
		})
	}
	if recycled == 0 {
		t.Fatal("no shape recycled a store; the table is not exercising the free list")
	}
}

// TestRecycle_FaultAfterRecycleRollsBack: x is overwritten — its old store
// recycled — and then the consumer that reads x fails inside its kernel.
// The failed output keeps its prior content bit for bit and its store stays
// off the pool's shelves, the operation that reads the poisoned output
// fails without touching x's new store, both survive the pool being
// churned, and later full overwrites rehabilitate both. The assertions are
// absolute, under the DAG scheduler.
func TestRecycle_FaultAfterRecycleRollsBack(t *testing.T) {
	for _, kind := range []faults.Kind{faults.KernelErr, faults.OOM} {
		t.Run(kind.String(), func(t *testing.T) {
			watch := assertQuiescent(t)
			ResetForTesting()
			if err := Init(NonBlocking); err != nil {
				t.Fatalf("Init: %v", err)
			}
			SetScheduler(SchedDag)
			prevW := parallel.SetMaxWorkers(4)
			defer parallel.SetMaxWorkers(prevW)
			defer func() {
				faults.Disable()
				ResetForTesting()
				if err := Init(Blocking); err != nil {
					t.Fatalf("re-Init: %v", err)
				}
			}()

			rng := rand.New(rand.NewSource(3))
			a, _ := newTestMatrix(t, rng, recycleDim, recycleDim, 0.5)
			mk := func(vals ...float64) *Vector[float64] {
				v, err := NewVector[float64](recycleDim)
				if err != nil {
					t.Fatalf("NewVector: %v", err)
				}
				for i, x := range vals {
					if x != 0 {
						if err := v.SetElement(x, i); err != nil {
							t.Fatalf("SetElement: %v", err)
						}
					}
				}
				return v
			}
			v0 := mk(1, 0, 2, 0, 3, 4)
			x := mk(5, 6, 0, 7, 0, 0)
			v2 := mk(0, 8, 0, 9, 0, 1)
			churn := newChurner(t)
			if err := Wait(); err != nil {
				t.Fatalf("setup Wait: %v", err)
			}
			for _, v := range []*Vector[float64]{v0, x, v2} {
				v.vdat() // merge the point updates into a store a rollback restores
			}
			v2Before := vecBits(v2)

			s := plusTimesF64(t)
			withFaults(t, 1, faults.Rule{Site: "MxV", Kind: kind, Times: 1})

			// pos 0 overwrites x and recycles its old store; pos 1 reads the
			// new one and fails; pos 2 reads the poisoned v2 and short-circuits.
			_ = ApplyV(x, NoMaskV, NoAccum[float64](), scaleOp(2), v0, nil)
			_ = MxV(v2, NoMaskV, NoAccum[float64](), s, a, x, nil)
			_ = AssignVector(x, NoMaskV, NoAccum[float64](), v2, nil, nil)
			waitErr := Wait()
			faults.Disable()

			wantInfo := PanicInfo
			if kind == faults.OOM {
				wantInfo = OutOfMemory
			}
			if InfoOf(waitErr) != wantInfo {
				t.Fatalf("Wait = %v (class %v), want class %v", waitErr, InfoOf(waitErr), wantInfo)
			}
			log := SequenceErrors()
			if len(log) != 2 {
				t.Fatalf("error log has %d entries, want 2: %v", len(log), log)
			}
			if log[0].Pos != 1 || log[0].Op != "MxV" || InfoOf(log[0].Err) != wantInfo {
				t.Fatalf("first error = pos %d op %s class %v, want pos 1 op MxV class %v",
					log[0].Pos, log[0].Op, InfoOf(log[0].Err), wantInfo)
			}
			if log[1].Pos != 2 || log[1].Op != "AssignVector" || InfoOf(log[1].Err) != InvalidObject {
				t.Fatalf("second error = %+v, want pos 2 AssignVector short-circuit", log[1])
			}
			if v2.err == nil || x.err == nil {
				t.Fatalf("the fault must invalidate v2 and the short-circuit x: v2.err=%v x.err=%v", v2.err, x.err)
			}
			xAfter := vecBits(x)
			if xAfter != vecBitsOf(recycleDim, []int{0, 2, 4, 5}, []float64{2, 4, 6, 8}) {
				t.Fatalf("x holds %s, want the committed 2·v0", xAfter)
			}
			if got := vecBits(v2); got != v2Before {
				t.Fatalf("failed MxV left v2 holding %s, held %s", got, v2Before)
			}
			st := StatsSnapshot()
			if st.Rollbacks == 0 {
				t.Fatal("failed kernel recorded no rollback")
			}

			if x.shelved() || v2.shelved() {
				t.Fatalf("a failed flush left a held store on the pool's shelves: x %v, v2 %v", x.shelved(), v2.shelved())
			}
			churn.run(t)
			if got := vecBits(x); got != xAfter {
				t.Fatalf("after the pool was churned, x holds %s, held %s", got, xAfter)
			}
			if got := vecBits(v2); got != v2Before {
				t.Fatalf("after the pool was churned, v2 holds %s, held %s", got, v2Before)
			}

			// Full overwrites rehabilitate both, exactly as after any kernel
			// failure.
			if err := ApplyV(x, NoMaskV, NoAccum[float64](), scaleOp(2), v0, nil); err != nil {
				t.Fatalf("rehabilitating ApplyV(x): %v", err)
			}
			if err := ApplyV(v2, NoMaskV, NoAccum[float64](), scaleOp(2), v0, nil); err != nil {
				t.Fatalf("rehabilitating ApplyV(v2): %v", err)
			}
			if err := Wait(); err != nil {
				t.Fatalf("rehabilitation Wait: %v", err)
			}
			if x.err != nil || v2.err != nil {
				t.Fatalf("overwrite did not rehabilitate: x.err=%v v2.err=%v", x.err, v2.err)
			}
			watch(v0, x, v2)
			for _, v := range churn.vectors() {
				watch(v)
			}
		})
	}
}

// vecBitsOf is vecBits of a vector holding exactly the given entries.
func vecBitsOf(n int, idx []int, val []float64) string {
	return vecBits(&Vector[float64]{data: &sparse.Vec[float64]{N: n, Idx: idx, Val: val}})
}

// FuzzRecycleSchedule derives a short vector program and an optional
// op-name fault rule from fuzz input and asserts the three-way identity
// (and, when nothing fails, the model) with recycling and a pool churn in
// every run.
func FuzzRecycleSchedule(f *testing.F) {
	// Seeds covering: producer-consumer chains under no plan, each op-name
	// rule site, a consumer whose mask aliases its source, and junk.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 0, 2, 1, 0, 1, 3})
	f.Add([]byte{0, 1, 1, 2, 5, 0, 1, 0, 2, 2, 1, 0, 1, 3, 4, 2, 1})
	f.Add([]byte{1, 0, 1, 2, 9, 0, 1, 0, 2, 2, 1, 0, 1, 3})
	f.Add([]byte{3, 1, 0, 0, 7, 3, 2, 1, 4, 0, 2, 0, 3, 1})
	f.Add([]byte{0, 0, 0, 0, 5, 0, 1, 0, 6, 2, 1, 0, 1, 3})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 247})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		sites := []string{"", "ApplyV", "MxV", "VxM", "AssignVector"}
		var rules []faults.Rule
		if site := sites[int(data[0])%len(sites)]; site != "" {
			rules = []faults.Rule{{
				Site:  site,
				Kind:  []faults.Kind{faults.OOM, faults.KernelErr, faults.PanicFault}[int(data[1])%3],
				After: int(data[2]) % 3,
				Every: int(data[3]) % 3,
			}}
		}
		seed := int64(data[4])
		var prog []recycleOp
		for i := 5; i+2 < len(data) && len(prog) < 8; i += 3 {
			prog = append(prog, recycleOp{kind: int(data[i]), dst: int(data[i+1]), s1: int(data[i+2])})
		}
		if len(prog) == 0 {
			t.Skip()
		}
		recycleTriple(t, fmt.Sprintf("fuzz (rules %v, prog %v)", rules, prog), seed, rules,
			func(env *recycleEnv) { runRecycleBody(env, prog) })
	})
}
