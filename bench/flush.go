package main

import (
	"fmt"
	"os"
	"time"

	"graphblas"
	"graphblas/internal/generate"
)

const (
	flushChains      = 8 // matrices, and independent chains per flush
	flushOpsPerChain = 3 // MxV → ApplyV → ApplyV
	flushTiny        = 4 // two-op flushes per repetition, each forced by NVals
)

// flushSmall: the BENCH_dataflow.json shapes on eight small matrices. One
// flush takes well under two milliseconds and the three shapes differ
// fourfold, so one timed op is a fixed batch of flushReps × {one chained
// 24-op flush, one 8×3 independent flush, four tiny flushes}: the samples
// are unimodal and long enough to time.
type flushSmall struct {
	sz sizes
	tr *tracer

	graphs []*generate.Graph
	// Oracle references for the state one repetition leaves behind.
	refChained denseVec
	refIndep   []denseVec
	refTiny    []denseVec

	sem  graphblas.Semiring[float64, float64, float64]
	half graphblas.UnaryOp[float64, float64]
	a    []*graphblas.Matrix[float64]
	src  []*graphblas.Vector[float64]
	mid  []*graphblas.Vector[float64]
	tmp  []*graphblas.Vector[float64]
	out  []*graphblas.Vector[float64]
	ping [2]*graphblas.Vector[float64] // the chained flush's buffers
	tin  []*graphblas.Vector[float64]  // the tiny flushes' buffers
	tout []*graphblas.Vector[float64]
}

func newFlushSmall(sz sizes, tr *tracer) workload { return &flushSmall{sz: sz, tr: tr} }

func (w *flushSmall) clients() int          { return 1 }
func (w *flushSmall) blockSeconds() float64 { return 0.003 * float64(w.sz.flushReps*w.sz.flushBlock) }
func (w *flushSmall) counters() serveCounts { return serveCounts{} }
func (w *flushSmall) finish() (int, int)    { return 0, 0 }

// denseVec is a sparse vector held densely by the oracle.
type denseVec struct {
	val     []float64
	present []bool
}

func onesVec(n int) denseVec {
	v := denseVec{make([]float64, n), make([]bool, n)}
	for i := range v.val {
		v.val[i], v.present[i] = 1, true
	}
	return v
}

// mxv is w = A·u over ⟨+,×⟩, terms added in ascending column order, an
// entry only where some term exists.
func mxv(g *generate.Graph, u denseVec) denseVec {
	w := denseVec{make([]float64, g.N), make([]bool, g.N)}
	for _, e := range g.Edges { // Dedup left the edges sorted by (src, dst)
		if u.present[e.Dst] {
			w.val[e.Src] += e.Weight * u.val[e.Dst]
			w.present[e.Src] = true
		}
	}
	return w
}

func halved(u denseVec) denseVec {
	w := denseVec{make([]float64, len(u.val)), u.present}
	for i, x := range u.val {
		w.val[i] = x / 2
	}
	return w
}

func (w *flushSmall) generate(seed uint64) {
	for k := 0; k < flushChains; k++ {
		w.graphs = append(w.graphs, generate.RMAT(w.sz.flushScale, edgeFactor, subSeed(seed, 2, k)).Dedup(true))
	}
	n := w.graphs[0].N
	cur := onesVec(n)
	for i := 0; i < flushChains*flushOpsPerChain; i++ {
		if i%flushOpsPerChain == 0 {
			cur = mxv(w.graphs[0], cur)
		} else {
			cur = halved(cur)
		}
	}
	w.refChained = cur
	for k := 0; k < flushChains; k++ {
		w.refIndep = append(w.refIndep, halved(halved(mxv(w.graphs[k], onesVec(n)))))
	}
	for k := 0; k < flushTiny; k++ {
		w.refTiny = append(w.refTiny, halved(halved(onesVec(n))))
	}
}

func (w *flushSmall) setup(int) setupResult {
	if err := w.build(); err != nil {
		return setupResult{attempted: 1, failed: 1}
	}
	return warmed(w.run(0, 1))
}

func (w *flushSmall) build() error {
	var err error
	w.sem = graphblas.PlusTimes[float64]()
	if w.half, err = graphblas.NewUnaryOp("half", func(x float64) float64 { return x / 2 }); err != nil {
		return err
	}
	n := w.graphs[0].N
	idx := make([]int, n)
	ones := make([]float64, n)
	for i := range idx {
		idx[i], ones[i] = i, 1
	}
	vec := func() *graphblas.Vector[float64] {
		var v *graphblas.Vector[float64]
		if err == nil {
			v, err = graphblas.NewVector[float64](n)
		}
		return v
	}
	full := func() *graphblas.Vector[float64] {
		v := vec()
		if err == nil {
			err = v.Build(idx, ones, graphblas.NoAccum[float64]())
		}
		return v
	}
	w.a, w.src, w.mid, w.tmp, w.out, w.tin, w.tout = nil, nil, nil, nil, nil, nil, nil
	for k := 0; k < flushChains && err == nil; k++ {
		rows, cols, vals := w.graphs[k].Tuples()
		var a *graphblas.Matrix[float64]
		if a, err = graphblas.NewMatrix[float64](n, n); err != nil {
			break
		}
		if err = a.Build(rows, cols, vals, graphblas.First[float64]()); err != nil {
			break
		}
		w.a = append(w.a, a)
		w.src = append(w.src, full())
		w.mid = append(w.mid, vec())
		w.tmp = append(w.tmp, vec())
		w.out = append(w.out, vec())
	}
	for k := 0; k < flushTiny; k++ {
		w.tin = append(w.tin, vec())
		w.tout = append(w.tout, vec())
	}
	w.ping = [2]*graphblas.Vector[float64]{vec(), vec()}
	if err != nil {
		return err
	}
	return graphblas.Wait()
}

func (w *flushSmall) block(b, _ int) blockResult {
	return w.run((b-1)*w.sz.flushBlock+1, w.sz.flushBlock)
}

func (w *flushSmall) run(first, count int) blockResult {
	res := blockResult{lat: make([]float64, count)}
	errs := make([]error, count)
	res.win = measure(func() {
		for i := 0; i < count; i++ {
			t0 := time.Now()
			errs[i] = w.batch(first + i)
			res.lat[i] = time.Since(t0).Seconds() * 1e3
		}
	})
	// Every batch recomputes the same vectors from the same sources, so the
	// state after the last one answers for all of them; a batch that
	// returned an error fails on its own.
	stateOK := w.check()
	for i, err := range errs {
		if err != nil || !stateOK {
			res.failed++
			fmt.Fprintf(os.Stderr, "bench: flush-small batch %d failed: state ok=%v, error %v\n", first+i, stateOK, err)
		}
	}
	return res
}

func (w *flushSmall) batch(req int) error {
	root := w.tr.begin("op.flush-small", -1, req)
	defer w.tr.end(root)
	for r := 0; r < w.sz.flushReps; r++ {
		if err := w.flush("chained", root, req, w.enqueueChained, graphblas.Wait); err != nil {
			return err
		}
		if err := w.flush("indep", root, req, w.enqueueIndependent, graphblas.Wait); err != nil {
			return err
		}
		for k := 0; k < flushTiny; k++ {
			err := w.flush("tiny", root, req, func() error { return w.enqueueTiny(k) }, func() error {
				_, err := w.tout[k].NVals() // a read of the result forces the sequence
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// flush enqueues one shape and forces it, with a span around either half.
func (w *flushSmall) flush(shape string, root, req int, enqueue, force func() error) error {
	id := w.tr.begin("core.enqueue."+shape, root, req)
	err := enqueue()
	w.tr.end(id)
	if err != nil {
		return err
	}
	id = w.tr.begin("core.wait."+shape, root, req)
	err = force()
	w.tr.end(id)
	return err
}

// enqueueChained queues 24 ops, each consuming its predecessor's output: the
// hazard DAG is a line.
func (w *flushSmall) enqueueChained() error {
	na := graphblas.NoAccum[float64]()
	cur := w.src[0]
	for i := 0; i < flushChains*flushOpsPerChain; i++ {
		nxt := w.ping[i%2]
		var err error
		if i%flushOpsPerChain == 0 {
			err = graphblas.MxV(nxt, graphblas.NoMaskV, na, w.sem, w.a[0], cur, nil)
		} else {
			err = graphblas.ApplyV(nxt, graphblas.NoMaskV, na, w.half, cur, nil)
		}
		if err != nil {
			return err
		}
		cur = nxt
	}
	return nil
}

// enqueueIndependent queues eight disjoint MxV→ApplyV→ApplyV pipelines: a
// 24-node DAG with no edge between chains.
func (w *flushSmall) enqueueIndependent() error {
	na := graphblas.NoAccum[float64]()
	for k := 0; k < flushChains; k++ {
		if err := graphblas.MxV(w.mid[k], graphblas.NoMaskV, na, w.sem, w.a[k], w.src[k], nil); err != nil {
			return err
		}
		if err := graphblas.ApplyV(w.tmp[k], graphblas.NoMaskV, na, w.half, w.mid[k], nil); err != nil {
			return err
		}
		if err := graphblas.ApplyV(w.out[k], graphblas.NoMaskV, na, w.half, w.tmp[k], nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *flushSmall) enqueueTiny(k int) error {
	na := graphblas.NoAccum[float64]()
	if err := graphblas.ApplyV(w.tin[k], graphblas.NoMaskV, na, w.half, w.src[k], nil); err != nil {
		return err
	}
	return graphblas.ApplyV(w.tout[k], graphblas.NoMaskV, na, w.half, w.tin[k], nil)
}

func (w *flushSmall) check() bool {
	last := w.ping[(flushChains*flushOpsPerChain-1)%2]
	if !vecMatches(last, w.refChained) {
		return false
	}
	for k := range w.out {
		if !vecMatches(w.out[k], w.refIndep[k]) {
			return false
		}
	}
	for k := range w.tout {
		if !vecMatches(w.tout[k], w.refTiny[k]) {
			return false
		}
	}
	return true
}

func vecMatches(v *graphblas.Vector[float64], ref denseVec) bool {
	idx, vals, err := v.ExtractTuples()
	if err != nil {
		return false
	}
	return matchSparse(len(ref.val), idx, func(k int) float64 { return vals[k] },
		func(i int) (float64, bool) { return ref.val[i], ref.present[i] }, 1e-9)
}
