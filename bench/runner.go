package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"graphblas"
)

const (
	// setupReps set-ups per untraced run; setup_s is their median, so one
	// slow construction (page faults of a cold heap, a neighbour's burst)
	// does not move it.
	setupReps = 9
	// defaultTraceDir is relative to the repository root, where the
	// benchmark is run from.
	defaultTraceDir = "bench/out"
	// segmentSeconds is the least timed work between two calibrations. The
	// host's phases last from seconds to minutes; a calibration every half
	// second follows them and costs under a tenth of the run.
	segmentSeconds = 0.4
)

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sz       sizes
	traceDir string // where a traced run writes trace-<workload>.json
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupResult is what one set-up reports besides its duration.
type setupResult struct {
	firstOpMs         float64
	attempted, failed int
}

// tally accumulates the blocks of one kind (timed, traced, untraced). Every
// block of a workload has the same composition, so each block yields its own
// estimate of every metric, and a run reports the median over its blocks: a
// burst of the host that hits a minority of blocks does not move it.
type tally struct {
	lat      []float64 // pooled, for the sample counts
	p50, p90 []float64 // per block
	perSec   []float64 // ops per timed second, per block
	allocMB  []float64 // MB allocated per op, per block
	cpuMs    []float64 // user+system CPU per op, per block, as measured
	refCPUMs []float64 // the same per segment, at the reference processor's speed
	win      window
	ops      int
}

func (t *tally) add(r blockResult) {
	n := float64(len(r.lat))
	lat := sorted(r.lat)
	t.lat = append(t.lat, r.lat...)
	t.ops += len(r.lat)
	t.win.add(r.win)
	t.p50 = append(t.p50, percentile(lat, 0.50))
	t.p90 = append(t.p90, percentile(lat, 0.90))
	t.perSec = append(t.perSec, ratio(n, r.win.seconds))
	t.allocMB = append(t.allocMB, ratio(float64(r.win.allocBytes)/1e6, n))
	t.cpuMs = append(t.cpuMs, ratio(r.win.cpuSeconds*1e3, n))
}

// runOne performs one run of one workload: the untraced run measures the
// end-to-end metrics, the traced run the per-layer ones.
func runOne(cfg runConfig, log io.Writer) (result, error) {
	info, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	return runWorkload(cfg, info.build, log)
}

func runWorkload(cfg runConfig, build func(sizes, *tracer) workload, log io.Writer) (result, error) {
	// One context per process, nonblocking: the mode the paper's §IV is about.
	if graphblas.CurrentMode() != graphblas.NonBlocking {
		if err := graphblas.Init(graphblas.NonBlocking); err != nil {
			return result{}, err
		}
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	w := build(cfg.sz, tr)

	t0 := time.Now()
	w.generate(cfg.seed)
	genSeconds := time.Since(t0).Seconds()

	if cfg.trace {
		return runTraced(cfg, w, tr, genSeconds, log)
	}

	cal, err := newCalibration()
	if err != nil {
		return result{}, err
	}
	defer cal.close()
	res := result{}
	var setups, setupPeaks, blockPeaks, cals []float64
	calBefore := cal.run()
	for i := 0; i < setupReps; i++ {
		runtime.GC() // every set-up starts from a collected heap
		resetPeakRSS()
		c0 := cpuSeconds()
		s := w.setup(w.clients())
		cpu := cpuSeconds() - c0
		setupPeaks = append(setupPeaks, peakRSSMB())
		calAfter := cal.run()
		setups = append(setups, atReference(cpu, calBefore, calAfter))
		cals = append(cals, calAfter)
		calBefore = calAfter
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	// The timed blocks, in segments of at least segmentSeconds between two
	// calibrations; a segment is one sample of ref_cpu_ms_per_op.
	var timed tally
	var seg window
	segOps := 0
	for b := 1; timed.win.seconds < cfg.seconds; b++ {
		resetPeakRSS()
		r := w.block(b, w.clients())
		blockPeaks = append(blockPeaks, peakRSSMB())
		timed.add(r)
		res.Failed += r.failed
		seg.add(r.win)
		segOps += len(r.lat)
		if seg.seconds >= segmentSeconds || timed.win.seconds >= cfg.seconds {
			calAfter := cal.run()
			timed.refCPUMs = append(timed.refCPUMs, atReference(ratio(seg.cpuSeconds*1e3, float64(segOps)), calBefore, calAfter))
			cals = append(cals, calAfter)
			calBefore, seg, segOps = calAfter, window{}, 0
		}
	}
	res.Attempted += timed.ops
	fa, ff := w.finish()
	res.Attempted += fa
	res.Failed += ff

	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups))
	m.set("ref_cpu_ms_per_op", median(timed.refCPUMs))
	m.set("alloc_mb_per_op", median(timed.allocMB))
	// The 90th percentile over blocks: where one request in a block sets the
	// peak (a sharded PPR) the median block sits anywhere below it, and the
	// maximum of a run is its one worst moment.
	m.set("peak_rss_mb", math.Max(median(setupPeaks), percentile(sorted(blockPeaks), 0.90))-cal.mb)
	fmt.Fprintf(log, "%s seed=%d: %d timed ops in %d blocks over %.2f s, %d beyond the pooled p90, %d failed of %d attempted\n",
		cfg.workload, cfg.seed, timed.ops, len(timed.perSec), timed.win.seconds,
		samplesBeyond(sorted(timed.lat), 0.90), res.Failed, res.Attempted)
	// The wall-clock figures are not end-to-end metrics of record on this
	// host (README.md, "Noise"); a run still prints them for the reader.
	fmt.Fprintf(log, "  wall clock, %d caller(s): op p50 %.4g ms, op p90 %.4g ms, %.4g ops/s (medians over blocks)\n",
		w.clients(), median(timed.p50), median(timed.p90), median(timed.perSec))
	fmt.Fprintf(log, "  processor: %.4g ms per op as measured (median over blocks); the reference work took %.4g ms (median of %d), %d ms on the reference processor\n",
		median(timed.cpuMs), median(cals), len(cals), calNominalMs)
	printMetrics(log, m)
	res.Correct = res.Failed == 0
	res.Metrics, err = m.export(cfg.workload)
	return res, err
}

// runTraced is the per-layer run: one caller, odd blocks with the tracer
// registered and even blocks without (so host drift hits both alike), the
// trace written to bench/out, then the workload's layer probes. The number of
// blocks is fixed by --seconds and the workload, not by the clock, so the
// counts of a traced run repeat exactly.
func runTraced(cfg runConfig, w workload, tr *tracer, genSeconds float64, log io.Writer) (result, error) {
	res := result{}
	s := w.setup(1)
	res.Attempted, res.Failed = s.attempted, s.failed

	var traced, plain tally
	delta := engineCounters{}
	pairs := int(cfg.seconds / (2 * w.blockSeconds()))
	if pairs < 1 {
		pairs = 1
	}
	for b := 1; b <= 2*pairs; b++ {
		into := &plain
		var before engineCounters
		if b%2 == 1 {
			into, before = &traced, readEngineCounters()
			tr.resume()
		}
		r := w.block(b, 1)
		if b%2 == 1 {
			tr.pause()
			delta.addDelta(readEngineCounters(), before)
		}
		into.add(r)
		res.Failed += r.failed
	}
	res.Attempted += traced.ops + plain.ops
	fa, ff := w.finish()
	res.Attempted += fa
	res.Failed += ff

	tr.link()
	path, err := tr.write(cfg.traceDir, cfg.workload)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(log, "%s seed=%d: %d traced and %d untraced ops, %d spans (%d dropped) in %s\n",
		cfg.workload, cfg.seed, traced.ops, plain.ops, len(tr.spans), tr.dropped, path)

	m := newMetricSet(perLayer)
	m.merge(spanMetrics(tr.spans, traced.win.seconds))
	m.merge(delta.metrics(traced.ops, traced.win.seconds))
	m.set("dataflow.max_width", float64(graphblas.StatsSnapshot().MaxWidth))
	c := w.counters()
	m.set("serve.shed", float64(c.shed))
	m.set("serve.stale", float64(c.stale))
	m.set("serve.degraded", float64(c.degraded))
	m.set("serve.retried", float64(c.retried))
	m.set("shard.stale_frac", ratio(float64(c.stale), float64(c.requests)))
	m.set("shard.redo_depth_max", float64(c.redoDepthMax))

	ops := float64(plain.ops)
	m.set("runtime.gc_cycles_per_op", float64(plain.win.gcCycles)/ops)
	m.set("runtime.gc_pause_ms_per_op", float64(plain.win.gcPauseNs)/1e6/ops)
	m.set("runtime.mallocs_per_op", float64(plain.win.mallocs)/ops)

	m.set("obs.trace_overhead_frac", ratio(median(traced.lat), median(plain.lat))-1)
	m.set("bench.op_p50_ms", median(plain.p50))
	m.set("bench.op_p90_ms", median(plain.p90))
	m.set("bench.ops_per_s", median(plain.perSec))
	m.set("bench.gen_s", genSeconds)
	m.set("bench.first_op_ms", s.firstOpMs)
	p50s := sorted(plain.p50)
	m.set("bench.round_spread_frac", ratio(p50s[len(p50s)-1]-p50s[0], median(p50s)))
	m.set("bench.cpu_ms_per_op", median(plain.cpuMs))
	cal, err := newCalibration()
	if err != nil {
		return res, err
	}
	defer cal.close()
	var cals []float64
	for i := 0; i < 5; i++ {
		cals = append(cals, cal.run())
	}
	m.set("host.calibration_ms", median(cals))
	m.set("host.steal_frac", ratio(traced.win.steal+plain.win.steal, traced.win.ticks+plain.win.ticks))

	p := &prober{sz: cfg.sz, out: map[string]float64{}}
	w.probe(p)
	m.merge(p.out)
	res.Failed += p.failed

	printMetrics(log, m)
	res.Correct = res.Failed == 0
	res.Metrics, err = m.export(cfg.workload)
	return res, err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printMetrics(log io.Writer, m *metricSet) {
	for _, d := range m.defs {
		fmt.Fprintf(log, "  %-34s %14.6g %s\n", d.name, m.values[d.name], d.unit)
	}
}

// engineCounters are the registry counters the per-layer table reads, by
// their registry names, all through the facade's MetricsSnapshot. A labelled
// family is summed over its labels, a histogram family over its sums.
type engineCounters map[string]float64

var engineCounterNames = []string{
	"graphblas_flushes_total", "graphblas_parallel_flushes_total",
	"graphblas_ops_enqueued_total", "graphblas_ops_executed_total",
	"graphblas_ops_elided_total", "graphblas_fused_pairs_total",
	"graphblas_dag_nodes_total", "graphblas_dag_edges_total",
	"graphblas_format_conversions_total", "graphblas_format_kernels_total",
	"graphblas_stream_merges_total", "graphblas_stream_merge_bytes_total",
	"graphblas_kernel_seconds",
}

func readEngineCounters() engineCounters {
	snap := graphblas.MetricsSnapshot()
	num := func(v any) float64 {
		switch x := v.(type) {
		case int64:
			return float64(x)
		case float64:
			return x
		}
		return 0
	}
	out := make(engineCounters, len(engineCounterNames))
	for _, name := range engineCounterNames {
		switch v := snap[name].(type) {
		case map[string]int64: // a labelled counter family
			for _, n := range v {
				out[name] += float64(n)
			}
		case map[string]any: // a labelled histogram family
			for _, h := range v {
				if h, ok := h.(map[string]any); ok {
					out[name] += num(h["sum"])
				}
			}
		default:
			out[name] = num(v)
		}
	}
	return out
}

// addDelta adds after-before to c.
func (c engineCounters) addDelta(after, before engineCounters) {
	for k, v := range after {
		c[k] += v - before[k]
	}
}

// metrics turns the deltas over the traced blocks into per-op numbers.
func (c engineCounters) metrics(ops int, wall float64) map[string]float64 {
	n := float64(ops)
	flushes, dagFlushes := c["graphblas_flushes_total"], c["graphblas_parallel_flushes_total"]
	return map[string]float64{
		"core.flushes_per_op":          ratio(flushes, n),
		"core.ops_per_flush":           ratio(c["graphblas_ops_enqueued_total"], flushes),
		"core.fused_pairs_per_op":      ratio(c["graphblas_fused_pairs_total"], n),
		"core.ops_elided_per_op":       ratio(c["graphblas_ops_elided_total"], n),
		"dataflow.dag_nodes_per_flush": ratio(c["graphblas_dag_nodes_total"], dagFlushes),
		"dataflow.dag_edges_per_flush": ratio(c["graphblas_dag_edges_total"], dagFlushes),
		"sparse.kernel_time_frac":      ratio(c["graphblas_kernel_seconds"], wall),
		"format.conversions_per_op":    ratio(c["graphblas_format_conversions_total"], n),
		"format.noncsr_kernel_frac":    ratio(c["graphblas_format_kernels_total"], c["graphblas_ops_executed_total"]),
		"stream.merges_per_kop":        ratio(c["graphblas_stream_merges_total"]*1e3, n),
		"stream.merge_mb_per_kop":      ratio(c["graphblas_stream_merge_bytes_total"]/1e6*1e3, n),
	}
}

// spanMetrics reads the engine's and the requests' time out of a linked
// trace. wall is the timed length of the traced blocks.
func spanMetrics(spans []span, wall float64) map[string]float64 {
	var queue, dispatch, run, reqMs []float64
	algoMs := map[string][]float64{}
	var busy [][2]int64
	var reqTotal, reqSelf int64
	children := childIndex(spans)
	for i, s := range spans {
		switch {
		case s.Engine:
			queue = append(queue, float64(s.Start-s.Enqueued)/1e3)
			if s.Kernel > 0 {
				dispatch = append(dispatch, float64(s.Kernel-s.Start)/1e3)
				run = append(run, float64(s.End-s.Kernel)/1e3)
				busy = append(busy, [2]int64{s.Kernel, s.End})
			}
		case strings.HasPrefix(s.Name, "algorithms.") && s.End >= 0:
			algoMs[s.Name] = append(algoMs[s.Name], float64(s.End-s.Start)/1e6)
		case strings.HasPrefix(s.Name, "serve.http.") && s.End >= 0:
			// Every engine op of a request is a direct child of the span
			// around its ServeHTTP call: link attaches to bench spans only.
			reqMs = append(reqMs, float64(s.End-s.Start)/1e6)
			reqTotal += s.End - s.Start
			reqSelf += selfTime(spans, i, children)
		}
	}
	reqSorted := sorted(reqMs)
	return map[string]float64{
		"algorithms.bfs_ms":      median(algoMs["algorithms.bfs"]),
		"algorithms.sssp_ms":     median(algoMs["algorithms.sssp"]),
		"algorithms.pagerank_ms": median(algoMs["algorithms.pagerank"]),
		"algorithms.cc_ms":       median(algoMs["algorithms.cc"]),
		"algorithms.tc_ms":       median(algoMs["algorithms.tc"]),
		"core.queue_wait_us_p50": median(queue),
		"core.dispatch_us_p50":   median(dispatch),
		"core.run_us_p50":        median(run),
		"core.overhead_frac":     1 - ratio(float64(unionLength(busy, math.MinInt64, math.MaxInt64))/1e9, wall),
		"serve.req_p50_ms":       percentile(reqSorted, 0.50),
		"serve.req_p99_ms":       percentile(reqSorted, 0.99),
		"serve.self_frac":        ratio(float64(reqSelf), float64(reqTotal)),
	}
}
