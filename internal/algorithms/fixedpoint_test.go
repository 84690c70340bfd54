package algorithms

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphblas/internal/builtins"
	"graphblas/internal/core"
	"graphblas/internal/generate"
	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/setalg"
)

// The oracles below are the fixed-point loops CC, SSSP and Reach ran before
// their tests moved into the engine: each sweep copies the whole state out
// before and after and compares the copies. The engine-side tests must stop
// at the same sweep and return the same bits.

func ccOracle(a *core.Matrix[bool]) (*core.Vector[int64], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	labels, err := core.NewVector[int64](n)
	if err != nil {
		return nil, err
	}
	ownID := core.IndexUnaryOp[int64, int64]{Name: "rowid", F: func(_ int64, i, _ int) int64 { return int64(i) }}
	if err := core.AssignVectorScalar(labels, core.NoMaskV, core.NoAccum[int64](), 0, core.All, nil); err != nil {
		return nil, err
	}
	if err := core.ApplyIndexOpV(labels, core.NoMaskV, core.NoAccum[int64](), ownID, labels, nil); err != nil {
		return nil, err
	}
	minCarry, err := core.NewSemiring(builtins.MinMonoid[int64](), firstLabel)
	if err != nil {
		return nil, err
	}
	minOp := builtins.Min[int64]()
	for iter := 0; iter < n; iter++ {
		before, beforeVals, err := labels.ExtractTuples()
		if err != nil {
			return nil, err
		}
		if err := core.VxM(labels, core.NoMaskV, minOp, minCarry, labels, a, nil); err != nil {
			return nil, err
		}
		after, afterVals, err := labels.ExtractTuples()
		if err != nil {
			return nil, err
		}
		if equalTuplesOf(before, beforeVals, after, afterVals, func(x, y int64) bool { return x == y }) {
			break
		}
	}
	return labels, nil
}

func ssspOracle(a *core.Matrix[float64], source int) (*core.Vector[float64], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	dist, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	if err := dist.SetElement(0, source); err != nil {
		return nil, err
	}
	minPlus := builtins.MinPlus[float64]()
	minOp := builtins.Min[float64]()
	for iter := 0; iter < n; iter++ {
		before, beforeVals, err := dist.ExtractTuples()
		if err != nil {
			return nil, err
		}
		if err := core.VxM(dist, core.NoMaskV, minOp, minPlus, dist, a, nil); err != nil {
			return nil, err
		}
		after, afterVals, err := dist.ExtractTuples()
		if err != nil {
			return nil, err
		}
		if equalTuplesOf(before, beforeVals, after, afterVals, func(x, y float64) bool { return x == y }) {
			break
		}
	}
	return dist, nil
}

func reachOracle(a *core.Matrix[bool], sources []int) (*core.Vector[setalg.Set], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	uni := len(sources)
	labels, err := core.NewVector[setalg.Set](n)
	if err != nil {
		return nil, err
	}
	for k, s := range sources {
		prev, perr := labels.ExtractElement(s)
		if perr != nil && !core.IsNoValue(perr) {
			return nil, perr
		}
		cur := setalg.SetOf(uni, k)
		if perr == nil {
			cur = cur.Union(prev)
		}
		if err := labels.SetElement(cur, s); err != nil {
			return nil, err
		}
	}
	full := setalg.FullSet(uni)
	setA, err := core.NewMatrix[setalg.Set](n, n)
	if err != nil {
		return nil, err
	}
	lift := core.UnaryOp[bool, setalg.Set]{Name: "toU", F: func(bool) setalg.Set { return full }}
	if err := core.ApplyM(setA, core.NoMask, core.NoAccum[setalg.Set](), lift, a, nil); err != nil {
		return nil, err
	}
	unionIntersect := setalg.UnionIntersect(uni)
	unionOp := setalg.UnionOp(uni)
	for iter := 0; iter < n; iter++ {
		beforeIdx, beforeVals, err := labels.ExtractTuples()
		if err != nil {
			return nil, err
		}
		if err := core.VxM(labels, core.NoMaskV, unionOp, unionIntersect, labels, setA, nil); err != nil {
			return nil, err
		}
		afterIdx, afterVals, err := labels.ExtractTuples()
		if err != nil {
			return nil, err
		}
		if equalTuplesOf(beforeIdx, beforeVals, afterIdx, afterVals, setalg.Set.Equal) {
			break
		}
	}
	return labels, nil
}

func equalTuplesOf[T any](ai []int, av []T, bi []int, bv []T, eq func(T, T) bool) bool {
	if len(ai) != len(bi) {
		return false
	}
	for k := range ai {
		if ai[k] != bi[k] || !eq(av[k], bv[k]) {
			return false
		}
	}
	return true
}

// vxmCalls counts the VxM products the engine has run, in either direction.
func vxmCalls() int64 {
	return obs.MxVDirection.With("push").Value() + obs.MxVDirection.With("pull").Value()
}

// fixedPointGraphs is testGraphs plus the shapes a fixed-point test can get
// wrong: isolated vertices, a single vertex, no edges at all, and weights of
// 0, -0 and NaN (a NaN distance never equals itself, so SSSP from a source
// that reaches it runs every one of its n sweeps).
func fixedPointGraphs() map[string]*generate.Graph {
	gs := testGraphs()
	gs["isolated"] = &generate.Graph{N: 12, Edges: []generate.Edge{
		{Src: 0, Dst: 1, Weight: 2}, {Src: 1, Dst: 0, Weight: 2}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 1, Weight: 1}, {Src: 6, Dst: 7, Weight: 3}, {Src: 7, Dst: 6, Weight: 3},
	}}
	gs["single"] = &generate.Graph{N: 1}
	gs["noedges"] = &generate.Graph{N: 9}
	zeroNaN := &generate.Graph{N: 10}
	for i := 0; i < 9; i++ {
		w := float64(i % 3) // 0, 1, 2, 0, …
		switch i {
		case 4:
			w = math.NaN()
		case 7:
			w = math.Copysign(0, -1)
		}
		zeroNaN.Edges = append(zeroNaN.Edges, generate.Edge{Src: i, Dst: i + 1, Weight: w})
	}
	// Vertex 5 is reached over the NaN edge only, and passes NaN on.
	zeroNaN.Edges = append(zeroNaN.Edges, generate.Edge{Src: 0, Dst: 3, Weight: 0}, generate.Edge{Src: 3, Dst: 8, Weight: 1})
	gs["zeronan"] = zeroNaN
	return gs
}

// inMode runs f under a fresh context in mode at the given worker count,
// and restores the package's nonblocking context afterwards.
func inMode(t *testing.T, mode core.Mode, workers int, f func()) {
	t.Helper()
	prev := parallel.SetMaxWorkers(workers)
	core.ResetForTesting()
	if err := core.Init(mode); err != nil {
		t.Fatalf("Init(%v): %v", mode, err)
	}
	defer func() {
		parallel.SetMaxWorkers(prev)
		core.ResetForTesting()
		if err := core.Init(core.NonBlocking); err != nil {
			t.Fatalf("re-Init: %v", err)
		}
	}()
	f()
}

// sameRun runs an algorithm and its oracle, counting the VxM calls each
// makes, and fails unless both made the same number and returned the same
// tuples under eq.
func sameRun[T any](t *testing.T, what string, run, oracle func() (*core.Vector[T], error), eq func(T, T) bool) {
	t.Helper()
	tuples := func(f func() (*core.Vector[T], error)) ([]int, []T, int64) {
		t.Helper()
		before := vxmCalls()
		v, err := f()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		idx, val, err := v.ExtractTuples()
		if err != nil {
			t.Fatalf("%s: ExtractTuples: %v", what, err)
		}
		return idx, val, vxmCalls() - before
	}
	wantI, wantV, wantCalls := tuples(oracle)
	gotI, gotV, gotCalls := tuples(run)
	if gotCalls != wantCalls {
		t.Errorf("%s: %d VxM calls, the extract-and-compare loop makes %d", what, gotCalls, wantCalls)
	}
	if !equalTuplesOf(gotI, gotV, wantI, wantV, eq) {
		t.Errorf("%s: result differs from the extract-and-compare loop's:\ngot  %v %v\nwant %v %v", what, gotI, gotV, wantI, wantV)
	}
}

// TestFixedPointsMatchExtractLoops: CC, SSSP and Reach, which test their
// fixed point with a reduction inside the engine, run exactly the sweeps
// the extract-and-compare loops ran — the same number of VxM calls — and
// return bit-identical vectors, in blocking and nonblocking mode at 1, 2 and
// 4 workers.
func TestFixedPointsMatchExtractLoops(t *testing.T) {
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	sameInt := func(x, y int64) bool { return x == y }
	for _, mode := range []core.Mode{core.Blocking, core.NonBlocking} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/w%d", mode, workers), func(t *testing.T) {
				inMode(t, mode, workers, func() {
					for name, g := range fixedPointGraphs() {
						pattern, weighted := boolMatrix(t, g), floatMatrix(t, g)
						undirected := boolMatrix(t, g.Symmetrize().Dedup(true))
						sameRun(t, name+"/cc", func() (*core.Vector[int64], error) { return ConnectedComponents(undirected) },
							func() (*core.Vector[int64], error) { return ccOracle(undirected) }, sameInt)
						sameRun(t, name+"/cc-directed", func() (*core.Vector[int64], error) { return ConnectedComponents(pattern) },
							func() (*core.Vector[int64], error) { return ccOracle(pattern) }, sameInt)
						sources := []int{0, g.N / 2, g.N - 1}
						for _, s := range sources {
							what := fmt.Sprintf("%s/sssp-from-%d", name, s)
							sameRun(t, what, func() (*core.Vector[float64], error) { return SSSP(weighted, s) },
								func() (*core.Vector[float64], error) { return ssspOracle(weighted, s) }, sameBits)
						}
						sameRun(t, name+"/reach", func() (*core.Vector[setalg.Set], error) { return Reach(pattern, sources) },
							func() (*core.Vector[setalg.Set], error) { return reachOracle(pattern, sources) }, setalg.Set.Equal)
						sameRun(t, name+"/reach-none", func() (*core.Vector[setalg.Set], error) { return Reach(pattern, nil) },
							func() (*core.Vector[setalg.Set], error) { return reachOracle(pattern, nil) }, setalg.Set.Equal)
					}
				})
			})
		}
	}
}

// ssspFullSweepOracle is the SSSP loop that relaxed every edge out of the
// reached set every sweep: c = d ⊕min (d min.+ A), stopped when c stores no
// more entries than d and no entry of c differs (≠) from d's. The frontier
// loop must stop at the same sweep and return the same bits.
func ssspFullSweepOracle(a *core.Matrix[float64], source int) (*core.Vector[float64], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	dist, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	if err := dist.SetElement(0, source); err != nil {
		return nil, err
	}
	cand, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	changed, err := core.NewVector[bool](n)
	if err != nil {
		return nil, err
	}
	minPlus := builtins.MinPlus[float64]()
	minOp := builtins.Min[float64]()
	neFloat64, anyTrue := builtins.Ne[float64](), builtins.LOrMonoid()
	stored := 1
	for iter := 0; iter < n; iter++ {
		if err := core.VxM(cand, core.NoMaskV, core.NoAccum[float64](), minPlus, dist, a, nil); err != nil {
			return nil, err
		}
		if err := core.EWiseAddV(cand, core.NoMaskV, core.NoAccum[float64](), minOp, dist, cand, nil); err != nil {
			return nil, err
		}
		if err := core.EWiseMultV(changed, core.NoMaskV, core.NoAccum[bool](), neFloat64, cand, dist, nil); err != nil {
			return nil, err
		}
		nv, err := cand.NVals()
		if err != nil {
			return nil, err
		}
		differs, err := core.ReduceVectorToScalar(false, core.NoAccum[bool](), anyTrue, changed)
		if err != nil {
			return nil, err
		}
		dist, cand = cand, dist
		if nv == stored && !differs {
			break
		}
		stored = nv
	}
	return dist, nil
}

// weightedVariants is fixedPointGraphs plus, for each of testGraphs, the
// same edges with about one weight in eight replaced by 0 or −0. NaN
// weights stay on fixedPointGraphs' zeronan graph: a NaN weight is outside
// SSSP's contract, and where one lies on an edge out of a vertex that did
// not change, relaxing it again decides nothing in the frontier loop but,
// first in the full loop's fold, keeps a shorter path out of it.
func weightedVariants() map[string]*generate.Graph {
	gs := fixedPointGraphs()
	rng := rand.New(rand.NewSource(17))
	specials := []float64{0, math.Copysign(0, -1)}
	for name, g := range testGraphs() {
		h := &generate.Graph{N: g.N, Edges: append([]generate.Edge(nil), g.Edges...)}
		for k := range h.Edges {
			if rng.Intn(8) == 0 {
				h.Edges[k].Weight = specials[rng.Intn(len(specials))]
			}
		}
		gs[name+"-special"] = h
	}
	return gs
}

// TestSSSPFrontierMatchesFullSweeps: SSSP, which relaxes only out of the
// entries the last sweep changed, runs as many sweeps — VxM calls — as the
// loop that relaxed every reached vertex every sweep, and returns the same
// bits, in blocking and nonblocking mode at 1, 2 and 4 workers. The graphs
// carry weights of 0 and −0, and zeronan a NaN, where a < test, a dropped
// relaxed value or a NaN distance leaving the frontier shows.
func TestSSSPFrontierMatchesFullSweeps(t *testing.T) {
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, mode := range []core.Mode{core.Blocking, core.NonBlocking} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/w%d", mode, workers), func(t *testing.T) {
				inMode(t, mode, workers, func() {
					for name, g := range weightedVariants() {
						weighted := floatMatrix(t, g)
						for _, s := range []int{0, g.N / 2, g.N - 1} {
							sameRun(t, fmt.Sprintf("%s/sssp-from-%d", name, s), func() (*core.Vector[float64], error) { return SSSP(weighted, s) },
								func() (*core.Vector[float64], error) { return ssspFullSweepOracle(weighted, s) }, sameBits)
						}
					}
				})
			})
		}
	}
}

// pageRankL1Oracle is the power iteration PageRankFrom ran when it computed
// the L1 change every sweep, at any tol: the oracle PageRank is held to,
// now that it skips the change where tol ≤ 0 cannot use it.
func pageRankL1Oracle(a *core.Matrix[float64], damping, tol float64, maxIter int) (*core.Vector[float64], int, error) {
	n, err := a.NRows()
	if err != nil {
		return nil, 0, err
	}
	plusPair, err := core.NewSemiring(builtins.PlusMonoid[float64](), pairDegree)
	if err != nil {
		return nil, 0, err
	}
	ones, err := core.NewVector[float64](n)
	if err != nil {
		return nil, 0, err
	}
	if err := core.AssignVectorScalar(ones, core.NoMaskV, core.NoAccum[float64](), 1, core.All, nil); err != nil {
		return nil, 0, err
	}
	outdeg, err := core.NewVector[float64](n)
	if err != nil {
		return nil, 0, err
	}
	if err := core.MxV(outdeg, core.NoMaskV, core.NoAccum[float64](), plusPair, a, ones, nil); err != nil {
		return nil, 0, err
	}
	rank, err := core.NewVector[float64](n)
	if err != nil {
		return nil, 0, err
	}
	if err := core.AssignVectorScalar(rank, core.NoMaskV, core.NoAccum[float64](), 1/float64(n), core.All, nil); err != nil {
		return nil, 0, err
	}
	plusFirst := builtins.PlusFirst[float64]()
	plusMonoid := builtins.PlusMonoid[float64]()
	div := builtins.Div[float64]()
	first := builtins.First[float64]()
	plus := builtins.Plus[float64]()
	scale := core.UnaryOp[float64, float64]{Name: "damp", F: func(x float64) float64 { return damping * x }}
	var work [4]*core.Vector[float64]
	for i := range work {
		if work[i], err = core.NewVector[float64](n); err != nil {
			return nil, 0, err
		}
	}
	share, next, withEdges, diffV := work[0], work[1], work[2], work[3]
	iters := 0
	for ; iters < maxIter; iters++ {
		if err := core.EWiseMultV(share, core.NoMaskV, core.NoAccum[float64](), div, rank, outdeg, core.Desc().ReplaceOutput()); err != nil {
			return nil, 0, err
		}
		total, err := core.ReduceVectorToScalar(0, core.NoAccum[float64](), plusMonoid, rank)
		if err != nil {
			return nil, 0, err
		}
		if err := core.EWiseMultV(withEdges, core.NoMaskV, core.NoAccum[float64](), first, rank, outdeg, nil); err != nil {
			return nil, 0, err
		}
		linked, err := core.ReduceVectorToScalar(0, core.NoAccum[float64](), plusMonoid, withEdges)
		if err != nil {
			return nil, 0, err
		}
		dangling := total - linked
		if err := next.Clear(); err != nil {
			return nil, 0, err
		}
		if err := core.VxM(next, core.NoMaskV, core.NoAccum[float64](), plusFirst, share, a, nil); err != nil {
			return nil, 0, err
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		if err := core.ApplyV(next, core.NoMaskV, core.NoAccum[float64](), scale, next, nil); err != nil {
			return nil, 0, err
		}
		if err := core.AssignVectorScalar(next, core.NoMaskV, plus, base, core.All, nil); err != nil {
			return nil, 0, err
		}
		if err := core.EWiseAddV(diffV, core.NoMaskV, core.NoAccum[float64](), absDiff, next, rank, nil); err != nil {
			return nil, 0, err
		}
		diff, err := core.ReduceVectorToScalar(0, core.NoAccum[float64](), plusMonoid, diffV)
		if err != nil {
			return nil, 0, err
		}
		rank, next = next, rank
		if diff < tol {
			iters++
			break
		}
	}
	return rank, iters, nil
}

// TestPageRankMatchesL1Loop: at tol 0, where the L1 change cannot end the
// loop and PageRank no longer computes it, the ranks are the L1 loop's bit
// for bit and the sweep count is maxIter; at tol > 0 ranks and sweep count
// are the L1 loop's too. Blocking and nonblocking, 1 and 4 workers.
func TestPageRankMatchesL1Loop(t *testing.T) {
	for _, mode := range []core.Mode{core.Blocking, core.NonBlocking} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/w%d", mode, workers), func(t *testing.T) {
				inMode(t, mode, workers, func() {
					for name, g := range fixedPointGraphs() {
						if g.N == 0 {
							continue
						}
						a := floatMatrix(t, g)
						for _, c := range []struct {
							tol     float64
							maxIter int
						}{{0, 10}, {-1, 3}, {1e-6, 100}, {1e-2, 100}} {
							what := fmt.Sprintf("%s/tol=%g/maxIter=%d", name, c.tol, c.maxIter)
							want, wantIters, err := pageRankL1Oracle(a, 0.85, c.tol, c.maxIter)
							if err != nil {
								t.Fatalf("%s: oracle: %v", what, err)
							}
							got, iters, err := PageRank(a, 0.85, c.tol, c.maxIter)
							if err != nil {
								t.Fatalf("%s: %v", what, err)
							}
							if iters != wantIters || c.tol <= 0 && iters != c.maxIter {
								t.Errorf("%s: %d sweeps, the L1 loop ran %d", what, iters, wantIters)
							}
							wi, wv, _ := want.ExtractTuples()
							gi, gv, _ := got.ExtractTuples()
							if !equalTuplesOf(gi, gv, wi, wv, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
								t.Errorf("%s: ranks differ from the L1 loop's:\ngot  %v\nwant %v", what, gv, wv)
							}
						}
					}
				})
			})
		}
	}
}
