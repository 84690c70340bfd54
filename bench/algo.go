package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"graphblas"
	"graphblas/internal/algorithms"
	"graphblas/internal/refalgo"
)

const (
	pageRankDamping = 0.85
	pageRankSweeps  = 10 // tolerance 0, so every pass runs exactly this many
)

// algoSuite: one op is one pass BFSLevels(s) + SSSP(s) + PageRank +
// ConnectedComponents + TriangleCount through internal/algorithms on facade
// objects, one caller, nonblocking mode, default scheduler.
type algoSuite struct {
	sz sizes
	tr *tracer

	seed uint64
	in   *graphInput
	sym  *refalgo.Adjacency // undirected version, for CC and triangles

	// Oracle references, precomputed for the first algoSources sources.
	refLevels [][]int
	refDist   [][]float64
	refRank   []float64
	refLabels []int
	refTri    int64

	// Program-side state of the last setup.
	weighted *graphblas.Matrix[float64]
	pattern  *graphblas.Matrix[bool]
	undirect *graphblas.Matrix[bool]
}

func newAlgoSuite(sz sizes, tr *tracer) workload { return &algoSuite{sz: sz, tr: tr} }

func (w *algoSuite) clients() int          { return 1 }
func (w *algoSuite) blockSeconds() float64 { return 0.055 * float64(w.sz.algoBlock) }
func (w *algoSuite) counters() serveCounts { return serveCounts{} }
func (w *algoSuite) finish() (int, int)    { return 0, 0 }

func (w *algoSuite) generate(seed uint64) {
	w.seed = seed
	w.in = newGraphInput(w.sz.algoScale, edgeFactor, seed)
	sg := symmetrized(w.in.g)
	w.sym = refalgo.NewAdjacency(sg)
	if len(w.in.sources) > w.sz.algoSources {
		w.in.sources = w.in.sources[:w.sz.algoSources]
	}
	for _, s := range w.in.sources {
		w.refLevels = append(w.refLevels, refalgo.BFSLevels(w.in.adj, s))
		w.refDist = append(w.refDist, refalgo.Dijkstra(w.in.adj, s))
	}
	w.refRank, _ = refalgo.PageRank(w.in.adj, pageRankDamping, 0, pageRankSweeps)
	w.refLabels = refalgo.ConnectedComponents(sg)
	w.refTri = refalgo.TriangleCount(w.sym)
}

func (w *algoSuite) setup(int) setupResult {
	n := w.in.g.N
	rows, cols, weights := w.in.g.Tuples()
	ones := make([]bool, len(rows))
	for i := range ones {
		ones[i] = true
	}
	var err error
	build := func() error {
		if w.weighted, err = graphblas.NewMatrix[float64](n, n); err != nil {
			return err
		}
		if err = w.weighted.Build(rows, cols, weights, graphblas.First[float64]()); err != nil {
			return err
		}
		if w.pattern, err = graphblas.NewMatrix[bool](n, n); err != nil {
			return err
		}
		if err = w.pattern.Build(rows, cols, ones, graphblas.LOr()); err != nil {
			return err
		}
		if w.undirect, err = graphblas.NewMatrix[bool](n, n); err != nil {
			return err
		}
		// The program symmetrizes its own input: A ∨ Aᵀ.
		if err = graphblas.EWiseAddM(w.undirect, graphblas.NoMask, graphblas.NoAccum[bool](), graphblas.LOr(),
			w.pattern, w.pattern, graphblas.Desc().Transpose1()); err != nil {
			return err
		}
		return graphblas.Wait()
	}
	if err := build(); err != nil {
		return setupResult{attempted: 1, failed: 1}
	}
	return warmed(w.run(0, w.sz.algoWarm))
}

func (w *algoSuite) block(b, _ int) blockResult {
	return w.run((b-1)*w.sz.algoBlock+w.sz.algoWarm, w.sz.algoBlock)
}

// algoAnswer holds one pass's results until the block's clock has stopped.
type algoAnswer struct {
	src    int // index into sources
	err    error
	levels *graphblas.Vector[int32]
	dist   *graphblas.Vector[float64]
	rank   *graphblas.Vector[float64]
	labels *graphblas.Vector[int64]
	tri    int64
}

// run executes passes first..first+count-1; pass i starts from source
// i mod len(sources).
func (w *algoSuite) run(first, count int) blockResult {
	answers := make([]algoAnswer, count)
	res := blockResult{lat: make([]float64, count)}
	res.win = measure(func() {
		for i := 0; i < count; i++ {
			a := &answers[i]
			a.src = (first + i) % len(w.in.sources)
			t0 := time.Now()
			a.err = w.pass(first+i, a)
			res.lat[i] = time.Since(t0).Seconds() * 1e3
		}
	})
	for i := range answers {
		if !w.check(&answers[i]) {
			res.failed++
			fmt.Fprintf(os.Stderr, "bench: algo-suite seed %d pass %d (source %d) failed: %v\n", w.seed, first+i, answers[i].src, answers[i].err)
		}
	}
	return res
}

func (w *algoSuite) pass(req int, a *algoAnswer) (err error) {
	tr := w.tr
	root := tr.begin("op.algo-suite", -1, req)
	defer tr.end(root)
	s := w.in.sources[a.src]
	step := func(name string, f func() error) {
		if err != nil {
			return
		}
		id := tr.begin(name, root, req)
		err = f()
		tr.end(id)
	}
	step("algorithms.bfs", func() (e error) { a.levels, e = algorithms.BFSLevels(w.pattern, s); return })
	step("algorithms.sssp", func() (e error) { a.dist, e = algorithms.SSSP(w.weighted, s); return })
	step("algorithms.pagerank", func() (e error) {
		a.rank, _, e = algorithms.PageRank(w.weighted, pageRankDamping, 0, pageRankSweeps)
		return
	})
	step("algorithms.cc", func() (e error) { a.labels, e = algorithms.ConnectedComponents(w.undirect); return })
	step("algorithms.tc", func() (e error) { a.tri, e = algorithms.TriangleCount(w.undirect); return })
	// The pass ends when its results exist, not when they are promised.
	step("core.wait", graphblas.Wait)
	return err
}

// check compares one pass against the references.
func (w *algoSuite) check(a *algoAnswer) bool {
	if a.err != nil {
		return false
	}
	n := w.in.g.N
	idx, lv, err := a.levels.ExtractTuples()
	if err != nil || !matchSparse(n, idx, func(k int) float64 { return float64(lv[k]) },
		func(v int) (float64, bool) { l := w.refLevels[a.src][v]; return float64(l), l >= 0 }, 0) {
		return false
	}
	idx, dv, err := a.dist.ExtractTuples()
	if err != nil || !matchSparse(n, idx, func(k int) float64 { return dv[k] },
		func(v int) (float64, bool) { d := w.refDist[a.src][v]; return d, !math.IsInf(d, 1) }, 1e-9) {
		return false
	}
	idx, rv, err := a.rank.ExtractTuples()
	if err != nil || !matchSparse(n, idx, func(k int) float64 { return rv[k] },
		func(v int) (float64, bool) { return w.refRank[v], true }, 1e-9) {
		return false
	}
	idx, cv, err := a.labels.ExtractTuples()
	if err != nil || !matchSparse(n, idx, func(k int) float64 { return float64(cv[k]) },
		func(v int) (float64, bool) { return float64(w.refLabels[v]), true }, 0) {
		return false
	}
	return a.tri == w.refTri
}

// matchSparse reports whether the sparse vector (idx, got) over [0,n) holds
// exactly the entries want defines, each within tol.
func matchSparse(n int, idx []int, got func(k int) float64, want func(v int) (float64, bool), tol float64) bool {
	at := make(map[int]int, len(idx))
	for k, v := range idx {
		at[v] = k
	}
	for v := 0; v < n; v++ {
		ref, present := want(v)
		k, ok := at[v]
		if ok != present {
			return false
		}
		if ok && !closeTo(got(k), ref, tol) {
			return false
		}
	}
	return true
}
