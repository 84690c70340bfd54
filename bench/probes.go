package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"graphblas"
	"graphblas/internal/dataflow"
	"graphblas/internal/format"
	"graphblas/internal/generate"
	"graphblas/internal/sparse"
	"graphblas/internal/stream"
)

// The layer probes call a layer's public functions directly. Each runs once,
// at the end of the traced run of the workload that exercises the layer, on
// that workload's own inputs and set-up state: an optimisation of one layer
// moves its probe whether or not it moves the workload's ops.

// prober collects probe values and counts calls that returned an error.
type prober struct {
	sz     sizes
	out    map[string]float64
	failed int
}

// ok counts err as a failed probe call.
func (p *prober) ok(err error) {
	if err != nil {
		p.failed++
	}
}

// reps is the repetition count of a probe; dear probes pass a divisor.
func (p *prober) reps(div int) int {
	if n := p.sz.probeReps / div; n > 3 {
		return n
	}
	return 3
}

// times runs f n times and returns each duration in seconds.
func times(n int, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		f(i)
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

func (w *algoSuite) probe(p *prober) {
	p.kernels(w.in)
	p.formats(w.seed)
}

// flushShapes splits each flush shape into the time inside the facade calls
// and the time inside the call that forces them, and times the scheduler's
// two halves alone on replicas of the shapes' footprints.
func (w *flushSmall) probe(p *prober) {
	n := p.reps(1)
	var enqueue float64
	shape := func(name string, enq, force func() error) {
		var waits []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			p.ok(enq())
			t1 := time.Now()
			p.ok(force())
			enqueue += t1.Sub(t0).Seconds()
			waits = append(waits, time.Since(t1).Seconds())
		}
		p.out[name] = 1e6 * median(waits)
	}
	shape("core.wait_us_chained", w.enqueueChained, graphblas.Wait)
	shape("core.wait_us_indep", w.enqueueIndependent, graphblas.Wait)
	shape("core.wait_us_tiny", func() error { return w.enqueueTiny(0) },
		func() error { _, err := w.tout[0].NVals(); return err })
	opsPerRound := 2*flushChains*flushOpsPerChain + 2
	p.out["core.enqueue_us_per_op"] = 1e6 * enqueue / float64(n*opsPerRound)

	// Object ids: the matrix and source of chain k are 10k+1 and 10k+2, its
	// three outputs 10k+3..5; the chained shape ping-pongs between 3 and 4.
	var line, forest []dataflow.OpMeta
	cur := uint64(2)
	for i := 0; i < flushChains*flushOpsPerChain; i++ {
		out := uint64(3 + i%2)
		reads := []uint64{cur}
		if i%flushOpsPerChain == 0 {
			reads = []uint64{1, cur}
		}
		line = append(line, dataflow.OpMeta{Out: out, Reads: reads, Overwrites: true})
		cur = out
	}
	for k := uint64(0); k < flushChains; k++ {
		b := 10 * k
		forest = append(forest,
			dataflow.OpMeta{Out: b + 3, Reads: []uint64{b + 1, b + 2}, Overwrites: true},
			dataflow.OpMeta{Out: b + 4, Reads: []uint64{b + 3}, Overwrites: true},
			dataflow.OpMeta{Out: b + 5, Reads: []uint64{b + 4}, Overwrites: true})
	}
	for _, s := range []struct {
		name string
		ops  []dataflow.OpMeta
	}{{"chained", line}, {"indep", forest}} {
		var g *dataflow.Graph
		p.out["dataflow.build_us_"+s.name] = 1e6 * median(times(n, func(int) { g = dataflow.Build(s.ops) }))
		p.out["dataflow.run_noop_us_"+s.name] = 1e6 * median(times(n, func(int) { g.Run(engineWorkers, func(int) {}) }))
	}
}

func plus(a, b float64) float64    { return a + b }
func product(a, b float64) float64 { return a * b }

// kernels times the sparse kernels the algorithms spend their time in, on
// the algo-suite graph: the two SpMV directions and the masked SpGEMM of the
// triangle count.
func (p *prober) kernels(in *graphInput) {
	n := in.g.N
	rows, cols, weights := in.g.Tuples()
	a, ok := sparse.BuildCSR(n, n, rows, cols, weights, nil)
	if !ok {
		p.failed++
		return
	}
	ones := make([]float64, n)
	all := make([]bool, n)
	some := make([]bool, n)
	for i := range ones {
		ones[i], all[i], some[i] = 1, true, i%16 == 0
	}
	full, thin := sparse.FromDense(ones, all), sparse.FromDense(ones, some)
	reps := p.reps(1)
	dot := median(times(reps, func(int) { sparse.DotMxV(a, full, product, plus, nil) }))
	p.out["sparse.dot_mxv_ms"] = 1e3 * dot
	p.out["sparse.dot_mxv_gbps_computed"] = float64(a.ApproxBytes()+2*full.ApproxBytes()) / 1e9 / dot
	p.out["sparse.push_mxv_ms"] = 1e3 * median(times(reps, func(int) { sparse.PushMxV(a, thin, product, plus, nil) }))

	// L is the strict lower triangle of the undirected graph, U its transpose.
	var li, lj []int
	for _, e := range symmetrized(in.g).Edges {
		if e.Dst < e.Src {
			li, lj = append(li, e.Src), append(lj, e.Dst)
		}
	}
	unit := make([]float64, len(li))
	for i := range unit {
		unit[i] = 1
	}
	lower, ok1 := sparse.BuildCSR(n, n, li, lj, unit, nil)
	upper, ok2 := sparse.BuildCSR(n, n, lj, li, unit, nil)
	if !ok1 || !ok2 {
		p.failed++
		return
	}
	mask := &sparse.MatMask{NCols: n, EffPtr: lower.Ptr, EffIdx: lower.ColIdx, StrPtr: lower.Ptr, StrIdx: lower.ColIdx}
	p.out["sparse.spgemm_masked_ms"] = 1e3 * median(times(p.reps(3), func(int) {
		sparse.SpGEMM(lower, upper, product, plus, mask)
	}))
	flops := 0
	for _, k := range lower.ColIdx {
		flops += upper.Ptr[k+1] - upper.Ptr[k]
	}
	p.out["sparse.spgemm_flops"] = float64(flops)
}

// formats times the layout conversions and the bitmap kernel on a matrix
// small enough for a dense layout (at most 1024 × 1024).
func (p *prober) formats(seed uint64) {
	scale := p.sz.algoScale
	if scale > 10 {
		scale = 10
	}
	g := generate.RMAT(scale, edgeFactor, subSeed(seed, 6)).Dedup(true)
	rows, cols, weights := g.Tuples()
	a, ok := sparse.BuildCSR(g.N, g.N, rows, cols, weights, nil)
	if !ok {
		p.failed++
		return
	}
	reps := p.reps(1)
	var bm format.Store[float64]
	p.out["format.convert_bitmap_ms"] = 1e3 * median(times(reps, func(int) { bm = format.Convert(format.Wrap(a), format.BitmapKind) }))
	p.out["format.convert_hyper_ms"] = 1e3 * median(times(reps, func(int) { format.Convert(format.Wrap(a), format.HyperKind) }))
	ones := make([]float64, g.N)
	all := make([]bool, g.N)
	for i := range ones {
		ones[i], all[i] = 1, true
	}
	u := sparse.FromDense(ones, all)
	bitmap, isBitmap := bm.(*format.Bitmap[float64])
	if !isBitmap {
		p.failed++
		return
	}
	p.out["format.dot_mxv_bitmap_ms"] = 1e3 * median(times(reps, func(int) { format.DotMxVBitmap(bitmap, u, product, plus, nil) }))
}

// randomUpdates draws count edge updates, every fourth a delete.
func randomUpdates(rng *generate.RNG, n, count int) []sparse.Tuple[float64] {
	ts := make([]sparse.Tuple[float64], count)
	for i := range ts {
		ts[i] = sparse.Tuple[float64]{I: rng.Intn(n), J: rng.Intn(n), V: 1, Del: i%4 == 3}
	}
	return ts
}

// streaming times the three kernels under every write and every read of a
// streamed matrix, at the serving graph's size: absorbing a batch into a
// live delta, compacting, and pinning an epoch.
func (p *prober) streaming(in *graphInput, seed uint64) {
	n := in.g.N
	rng := generate.NewRNG(subSeed(seed, 7))
	rows, cols, weights := in.g.Tuples()
	main, ok := sparse.BuildCSR(n, n, rows, cols, weights, nil)
	if !ok {
		p.failed++
		return
	}
	live := format.DeltaFromTuples(n, n, randomUpdates(rng, n, 2*n)) // 16k at scale 13
	batch := format.DeltaFromTuples(n, n, randomUpdates(rng, n, 64))
	p.out["stream.absorb_us_per_batch"] = 1e6 * median(times(p.reps(1), func(int) { stream.Absorb(live, batch) }))
	big := format.DeltaFromTuples(n, n, randomUpdates(rng, n, 4*n))
	p.out["stream.compact_ms"] = 1e3 * median(times(p.reps(3), func(int) { stream.Compact(main, big) }))

	m, err := graphblas.NewMatrix[float64](n, n)
	p.ok(err)
	if err != nil {
		return
	}
	_, err = m.SetMergePolicy(graphblas.ManualMerge())
	p.ok(err)
	base := graphblas.NewUpdateBatch[float64]()
	for _, e := range in.g.Edges {
		base.Insert(e.Src, e.Dst, 1)
	}
	p.ok(m.ApplyUpdateBatch(base))
	p.ok(m.Compact())
	extra := graphblas.NewUpdateBatch[float64]()
	for _, t := range randomUpdates(rng, n, 2*n) {
		if t.Del {
			extra.Delete(t.I, t.J)
		} else {
			extra.Insert(t.I, t.J, 1)
		}
	}
	p.ok(m.ApplyUpdateBatch(extra))
	p.ok(graphblas.Wait())
	p.out["stream.pin_epoch_us"] = 1e6 * median(times(p.reps(1), func(int) {
		_, err := m.PinEpoch()
		p.ok(err)
	}))
}

// get times one GET through the server and counts a non-200 as failed.
func (p *prober) get(w *serving, url, kind string) float64 {
	t0 := time.Now()
	rec := w.call(http.MethodGet, url, "", kind, -1, -1)
	d := time.Since(t0).Seconds()
	if rec.Code != http.StatusOK {
		p.failed++
	}
	return d
}

// endpoints times the read endpoints of a set-up serving workload, one
// caller, sources and k cycling.
func (p *prober) endpoints(w *serving, prefix string, pprReps int) {
	src := func(i int) int { return w.in.sources[i%len(w.in.sources)] }
	p.out[prefix+".khop_p50_ms"] = 1e3 * median(times(p.reps(1), func(i int) {
		p.get(w, fmt.Sprintf("/query/khop?src=%d&k=%d", src(i), 1+i%3), "khop")
	}))
	p.out[prefix+".ppr_p50_ms"] = 1e3 * median(times(pprReps, func(i int) {
		p.get(w, fmt.Sprintf("/query/ppr?src=%d&k=%d", src(i), pprTopK), "ppr")
	}))
}

// probe of a serving workload: serve-read probes the single-engine server it
// has set up, shard2-read the read side of its 2-shard store, shard2-rw the
// write side and the stream kernels under it.
func (w *serving) probe(p *prober) {
	switch {
	case w.shards == 1:
		p.serveLayer(w)
	case w.mix != nil:
		p.shardReads(w)
	default:
		p.shardWrites(w)
		p.streaming(w.in, w.seed)
	}
}

func (p *prober) serveLayer(w *serving) {
	src := func(i int) int { return w.in.sources[i%len(w.in.sources)] }
	p.endpoints(w, "serve", p.reps(4))
	p.out["serve.stats_p50_ms"] = 1e3 * median(times(3, func(int) { p.get(w, "/stats", "stats") }))
	p.out["serve.degree_p50_us"] = 1e6 * median(times(p.reps(1), func(i int) {
		p.get(w, fmt.Sprintf("/query/degree?v=%d", src(i)), "degree")
	}))
	ctx := context.Background()
	p.out["serve.view_us"] = 1e6 * median(times(p.reps(1), func(int) {
		_, _, err := w.be.View(ctx)
		p.ok(err)
	}))
	// The handler's own cost is what a request takes beyond the query it
	// runs: each pair asks the same question both ways, back to back.
	var over []float64
	for i := 0; i < p.reps(1); i++ {
		s, k := src(i), 1+i%3
		viaHTTP := p.get(w, fmt.Sprintf("/query/khop?src=%d&k=%d", s, k), "khop")
		t0 := time.Now()
		v, _, err := w.be.View(ctx)
		if err == nil {
			_, err = v.KHop(ctx, s, k)
		}
		p.ok(err)
		over = append(over, viaHTTP-time.Since(t0).Seconds())
	}
	p.out["serve.handler_overhead_us"] = 1e6 * median(over)
}

func (p *prober) shardReads(w *serving) {
	const pprReps = 3
	p.endpoints(w, "shard", pprReps)
	// The same PPR questions on one engine holding the same graph.
	single := newServeRead(p.sz, nil).(*serving)
	single.generate(w.seed)
	p.failed += single.setup(1).failed
	one := median(times(pprReps, func(i int) {
		p.get(single, fmt.Sprintf("/query/ppr?src=%d&k=%d", w.in.sources[i%len(w.in.sources)], pprTopK), "ppr")
	}))
	p.out["shard.ppr_ratio_vs_single"] = ratio(p.out["shard.ppr_p50_ms"], 1e3*one)
	p.out["shard.snapshot_us"] = 1e6 * median(times(p.reps(1), func(int) {
		_, _, err := w.store.Snapshot(context.Background())
		p.ok(err)
	}))
}

// shardWrites runs after the workload's final-state check, so what it writes
// is seen by nothing but its own reads.
func (p *prober) shardWrites(w *serving) {
	ctx := context.Background()
	// The warm-up deck supplies writes of the workload's own shape; here
	// they go to the store directly, each followed by the snapshot that has
	// to recompose because of it.
	deck := w.deck(0, 1)
	var ingest, recompose []float64
	n := p.reps(6)
	for i := 0; i < n; i++ {
		r := deck[i%len(deck)]
		b := stream.NewBatch[float64]()
		for _, e := range r.inserts {
			b.Insert(e[0], e[1], 1)
		}
		for _, e := range r.deletes {
			b.Delete(e[0], e[1])
		}
		t0 := time.Now()
		p.ok(w.store.Ingest(b))
		t1 := time.Now()
		_, _, err := w.store.Snapshot(ctx)
		p.ok(err)
		ingest = append(ingest, t1.Sub(t0).Seconds())
		recompose = append(recompose, time.Since(t1).Seconds())
	}
	p.out["shard.store_ingest_us_per_batch"] = 1e6 * median(ingest)
	p.out["shard.recompose_ms"] = 1e3 * median(recompose)

	var post, fresh []float64
	for i := 0; i < n; i++ {
		r := deck[(n+i)%len(deck)]
		body := r.ingestBody()
		t0 := time.Now()
		rec := w.call(http.MethodPost, "/ingest", body, "ingest", -1, -1)
		post = append(post, time.Since(t0).Seconds())
		if rec.Code != http.StatusOK {
			p.failed++
		}
		fresh = append(fresh, p.get(w, r.url(), "khop"))
	}
	p.out["shard.ingest_p50_ms"] = 1e3 * median(post)
	p.out["shard.fresh_read_p50_ms"] = 1e3 * median(fresh)
}
