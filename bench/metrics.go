package main

import "fmt"

// metricDef names one reported number. BENCHMARK.json lists the same names,
// units and directions; a unit test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
	// Per-layer metrics only. on names the one workload whose traced run
	// measures the metric (the other traced runs report 0); empty means every
	// traced run measures it on its own ops. moves is the metric the number
	// should move, "workload/metric" or "metric" for every workload: an
	// end-to-end one, or one of the wall-clock bench.op_* where the layer
	// metric is time spent waiting, which processor time does not see; empty
	// for the metrics that qualify a run. BENCHMARK.json has no key for either (its per_layer
	// entries carry exactly name, unit and better), so the one command prints
	// them and README.md repeats them.
	on, moves string
}

// endToEnd is what a user of the system sees, the same on every workload,
// measured with tracing off. The bounds come from NOISE.md: see README.md,
// "Noise".
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},            // processor time of program-side construction plus the fixed warm-up ops at reference speed (calibrate.go), median of the set-ups of one run; input generation excluded
	{name: "ref_cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25}, // getrusage user+system time over a segment of blocks / its ops, at reference speed, median over segments
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.08},   // runtime.MemStats.TotalAlloc over a block / its ops, median over blocks
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},       // VmHWM within one set-up and within one block, the larger of the median over set-ups and the 90th percentile over blocks, less the calibration buffers
}

const (
	onAlgo  = "algo-suite"
	onFlush = "flush-small"
	onServe = "serve-read"
	onShard = "shard2-read"
	onRW    = "shard2-rw"
)

func layer(name, unit, better, on, moves string) metricDef {
	return metricDef{name: name, unit: unit, better: better, on: on, moves: moves}
}

// perLayer is the per-layer table of a traced run. A metric with a workload
// in its fourth column is measured in that workload's traced run only, from
// its spans or by a direct probe of the layer on that workload's inputs; the
// others are measured on the traced blocks of whichever workload ran, and
// are 0 where the workload never enters the layer.
var perLayer = []metricDef{
	// algorithms: the bench spans around each call of a traced algo-suite pass.
	layer("algorithms.bfs_ms", "ms", "lower", onAlgo, "algo-suite/ref_cpu_ms_per_op"),      // BFSLevels, median
	layer("algorithms.sssp_ms", "ms", "lower", onAlgo, "algo-suite/ref_cpu_ms_per_op"),     // SSSP, median
	layer("algorithms.pagerank_ms", "ms", "lower", onAlgo, "algo-suite/ref_cpu_ms_per_op"), // PageRank, 10 sweeps, median
	layer("algorithms.cc_ms", "ms", "lower", onAlgo, "algo-suite/ref_cpu_ms_per_op"),       // ConnectedComponents, median
	layer("algorithms.tc_ms", "ms", "lower", onAlgo, "algo-suite/ref_cpu_ms_per_op"),       // TriangleCount, median

	// core (probe): time inside facade calls against time inside Wait/NVals, per flush shape.
	layer("core.enqueue_us_per_op", "us", "lower", onFlush, "flush-small/ref_cpu_ms_per_op"), // facade call time per deferred op, all three shapes
	layer("core.wait_us_chained", "us", "lower", onFlush, "flush-small/ref_cpu_ms_per_op"),   // Wait on the 24-op chained flush, median
	layer("core.wait_us_indep", "us", "lower", onFlush, "flush-small/ref_cpu_ms_per_op"),     // Wait on the 8x3 independent flush, median
	layer("core.wait_us_tiny", "us", "lower", onFlush, "flush-small/ref_cpu_ms_per_op"),      // NVals forcing a 2-op flush, median
	// core: the engine's own spans, through graphblas.SetTracer.
	layer("core.queue_wait_us_p50", "us", "lower", "", "flush-small/bench.op_p50_ms"),        // Enqueued to Scheduled, median over engine spans
	layer("core.dispatch_us_p50", "us", "lower", "", "flush-small/bench.op_p50_ms"),          // Scheduled to Kernel, median
	layer("core.run_us_p50", "us", "lower", "", "algo-suite/ref_cpu_ms_per_op"),              // Kernel to Done, median
	layer("core.overhead_frac", "frac", "lower", "", "flush-small/bench.op_p50_ms"),          // share of the traced wall time during which no engine op was between Kernel and Done
	layer("core.flushes_per_op", "count", "lower", "", "flush-small/ref_cpu_ms_per_op"),      // graphblas_flushes_total per timed op
	layer("core.ops_per_flush", "count", "higher", "", "flush-small/ref_cpu_ms_per_op"),      // graphblas_ops_enqueued_total per flush
	layer("core.fused_pairs_per_op", "count", "higher", "", "flush-small/ref_cpu_ms_per_op"), // graphblas_fused_pairs_total per timed op
	layer("core.ops_elided_per_op", "count", "higher", "", "flush-small/ref_cpu_ms_per_op"),  // graphblas_ops_elided_total per timed op

	// dataflow (probe): Build and Run with no-op executors on OpMeta replicas of the flush shapes.
	layer("dataflow.build_us_chained", "us", "lower", onFlush, "flush-small/ref_cpu_ms_per_op"),    // dataflow.Build of the 24-op line, median
	layer("dataflow.build_us_indep", "us", "lower", onFlush, "flush-small/ref_cpu_ms_per_op"),      // dataflow.Build of the 8x3 forest, median
	layer("dataflow.run_noop_us_chained", "us", "lower", onFlush, "flush-small/ref_cpu_ms_per_op"), // Graph.Run with empty executors, line, median
	layer("dataflow.run_noop_us_indep", "us", "lower", onFlush, "flush-small/ref_cpu_ms_per_op"),   // Graph.Run with empty executors, forest, median
	// dataflow: counter deltas.
	layer("dataflow.dag_nodes_per_flush", "count", "lower", "", "flush-small/ref_cpu_ms_per_op"), // graphblas_dag_nodes_total per DAG-scheduled flush
	layer("dataflow.dag_edges_per_flush", "count", "lower", "", "flush-small/ref_cpu_ms_per_op"), // graphblas_dag_edges_total per DAG-scheduled flush
	layer("dataflow.max_width", "count", "higher", "", "flush-small/ref_cpu_ms_per_op"),          // graphblas_dag_width_max, high-water of the process

	// sparse (probe): direct kernels on the algo-suite CSR; flops and bytes are computed from array sizes, not measured.
	layer("sparse.dot_mxv_ms", "ms", "lower", onAlgo, "algo-suite/ref_cpu_ms_per_op"),               // DotMxV, dense input vector, median
	layer("sparse.push_mxv_ms", "ms", "lower", onAlgo, "algo-suite/ref_cpu_ms_per_op"),              // PushMxV, 1/16-full input vector, median
	layer("sparse.spgemm_masked_ms", "ms", "lower", onAlgo, "algo-suite/ref_cpu_ms_per_op"),         // SpGEMM L*L' under mask L, the triangle kernel, median
	layer("sparse.spgemm_flops", "count", "lower", onAlgo, "algo-suite/ref_cpu_ms_per_op"),          // multiply-adds of the unmasked product, computed
	layer("sparse.dot_mxv_gbps_computed", "GB/s", "higher", onAlgo, "algo-suite/ref_cpu_ms_per_op"), // bytes of the CSR and both vectors / dot_mxv time, computed
	// sparse: counter deltas.
	layer("sparse.kernel_time_frac", "frac", "higher", "", "algo-suite/ref_cpu_ms_per_op"), // sum of graphblas_kernel_seconds / traced wall time; above 1 where kernels overlap

	// format (probe) on a scale-10 matrix, where a bitmap is feasible.
	layer("format.convert_bitmap_ms", "ms", "lower", onAlgo, "algo-suite/setup_s"),           // format.Convert CSR to bitmap, median
	layer("format.convert_hyper_ms", "ms", "lower", onAlgo, "algo-suite/setup_s"),            // format.Convert CSR to hypersparse, median
	layer("format.dot_mxv_bitmap_ms", "ms", "lower", onAlgo, "algo-suite/ref_cpu_ms_per_op"), // format.DotMxVBitmap, median
	// format: counter deltas.
	layer("format.conversions_per_op", "count", "lower", "", "algo-suite/ref_cpu_ms_per_op"), // graphblas_format_conversions_total per timed op
	layer("format.noncsr_kernel_frac", "frac", "higher", "", "algo-suite/ref_cpu_ms_per_op"), // graphblas_format_kernels_total / graphblas_ops_executed_total

	// stream (probe) at the serving graph's size.
	layer("stream.absorb_us_per_batch", "us", "lower", onRW, "shard2-rw/ref_cpu_ms_per_op"), // stream.Absorb of 64 updates into a 16k-entry delta, median
	layer("stream.compact_ms", "ms", "lower", onRW, "shard2-rw/bench.op_p90_ms"),            // stream.Compact of the serving CSR with a 32k-entry delta, median
	layer("stream.pin_epoch_us", "us", "lower", onRW, "shard2-rw/ref_cpu_ms_per_op"),        // Matrix.PinEpoch on a matrix with a live delta, median
	// stream: counter deltas.
	layer("stream.merges_per_kop", "count", "lower", "", "shard2-rw/bench.op_p90_ms"), // graphblas_stream_merges_total per 1000 timed ops
	layer("stream.merge_mb_per_kop", "MB", "lower", "", "shard2-rw/bench.op_p90_ms"),  // graphblas_stream_merge_bytes_total per 1000 timed ops

	// serve (probe): the single-engine server, one client.
	layer("serve.khop_p50_ms", "ms", "lower", onServe, "serve-read/ref_cpu_ms_per_op"),         // GET /query/khop, k cycling through 1..3, median
	layer("serve.ppr_p50_ms", "ms", "lower", onServe, "serve-read/bench.op_p90_ms"),            // GET /query/ppr, median
	layer("serve.stats_p50_ms", "ms", "lower", onServe, "serve-read/ref_cpu_ms_per_op"),        // GET /stats, median
	layer("serve.degree_p50_us", "us", "lower", onServe, "serve-read/ref_cpu_ms_per_op"),       // GET /query/degree, median
	layer("serve.view_us", "us", "lower", onServe, "serve-read/ref_cpu_ms_per_op"),             // Backend.View with an unchanged version, median
	layer("serve.handler_overhead_us", "us", "lower", onServe, "serve-read/ref_cpu_ms_per_op"), // ServeHTTP minus View.KHop with the same arguments, median of paired differences
	// serve: bench spans around ServeHTTP, and response headers.
	layer("serve.req_p50_ms", "ms", "lower", "", "serve-read/ref_cpu_ms_per_op"),  // request span, median over all endpoints
	layer("serve.req_p99_ms", "ms", "lower", "", "serve-read/bench.op_p90_ms"),    // request span, 99th percentile
	layer("serve.self_frac", "frac", "lower", "", "serve-read/ref_cpu_ms_per_op"), // share of request span time not covered by the engine op spans it encloses
	layer("serve.shed", "count", "lower", "", "serve-read/ref_cpu_ms_per_op"),     // 503 answers
	layer("serve.stale", "count", "lower", "", "shard2-rw/ref_cpu_ms_per_op"),     // answers carrying X-Graphblas-Stale
	layer("serve.degraded", "count", "lower", "", "serve-read/bench.op_p90_ms"),   // answers carrying X-Graphblas-Degraded
	layer("serve.retried", "count", "lower", "", "serve-read/bench.op_p90_ms"),    // answers carrying X-Graphblas-Attempts

	// shard (probe): the 2-shard store, one client.
	layer("shard.khop_p50_ms", "ms", "lower", onShard, "shard2-read/ref_cpu_ms_per_op"),            // GET /query/khop on 2 shards, median
	layer("shard.ppr_p50_ms", "ms", "lower", onShard, "shard2-read/ref_cpu_ms_per_op"),             // GET /query/ppr on 2 shards, median
	layer("shard.ppr_ratio_vs_single", "ratio", "lower", onShard, "shard2-read/ref_cpu_ms_per_op"), // shard.ppr_p50_ms / the same questions on one engine
	layer("shard.snapshot_us", "us", "lower", onShard, "shard2-read/ref_cpu_ms_per_op"),            // Store.Snapshot with an unchanged version, median
	layer("shard.recompose_ms", "ms", "lower", onRW, "shard2-rw/ref_cpu_ms_per_op"),                // Store.Snapshot right after an ingest, median
	layer("shard.store_ingest_us_per_batch", "us", "lower", onRW, "shard2-rw/ref_cpu_ms_per_op"),   // Store.Ingest of 64 updates, median
	layer("shard.ingest_p50_ms", "ms", "lower", onRW, "shard2-rw/ref_cpu_ms_per_op"),               // POST /ingest of 64 updates on 2 shards, median
	layer("shard.fresh_read_p50_ms", "ms", "lower", onRW, "shard2-rw/ref_cpu_ms_per_op"),           // GET /query/khop k=2 right after an ingest, median
	// shard: response headers and Store.RedoDepth.
	layer("shard.stale_frac", "frac", "lower", "", "shard2-rw/ref_cpu_ms_per_op"),    // stale answers / requests
	layer("shard.redo_depth_max", "count", "lower", "", "shard2-rw/bench.op_p90_ms"), // highest Store.RedoDepth seen between blocks

	// runtime: MemStats and getrusage deltas over the untraced blocks of the traced run.
	layer("runtime.gc_cycles_per_op", "count", "lower", "", "bench.op_p90_ms"), // MemStats.NumGC per timed op
	layer("runtime.gc_pause_ms_per_op", "ms", "lower", "", "bench.op_p90_ms"),  // MemStats.PauseTotalNs per timed op
	layer("runtime.mallocs_per_op", "count", "lower", "", "alloc_mb_per_op"),   // MemStats.Mallocs per timed op

	// These qualify a run; no end-to-end metric is expected to follow them.
	layer("obs.trace_overhead_frac", "frac", "lower", "", ""), // op_p50 of traced blocks / op_p50 of untraced blocks - 1
	layer("bench.op_p50_ms", "ms", "lower", "", ""),           // median op latency of a block, median over the untraced blocks; one caller
	layer("bench.op_p90_ms", "ms", "lower", "", ""),           // 90th percentile op latency of a block, median over the untraced blocks
	layer("bench.ops_per_s", "1/s", "higher", "", ""),         // ops of a block / its timed seconds, median over the untraced blocks
	layer("bench.gen_s", "s", "lower", "", ""),                // input generation and oracle references
	layer("bench.first_op_ms", "ms", "lower", "", ""),         // first warm-up op after construction: lazy work moved into first use shows here
	layer("bench.round_spread_frac", "frac", "lower", "", ""), // (max-min)/median of the per-block op_p50 of the untraced blocks
	layer("bench.cpu_ms_per_op", "ms", "lower", "", ""),       // processor time of a block / its ops as measured, not at reference speed, median over the untraced blocks
	layer("host.calibration_ms", "ms", "lower", "", ""),       // processor time of the reference work (calibrate.go), median of five; calNominalMs on a quiet host
	layer("host.steal_frac", "frac", "lower", "", ""),         // /proc/stat steal ticks / all ticks over the timed sections
}

// metricSet collects values by name and refuses names nobody declared.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

func (m *metricSet) merge(vals map[string]float64) {
	for n, v := range vals {
		m.set(n, v)
	}
}

// missing lists the metrics a run of workload should have measured and did
// not: every declared one but those that belong to another workload's run.
func (m *metricSet) missing(workload string) []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok && (d.on == "" || d.on == workload) {
			out = append(out, d.name)
		}
	}
	return out
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// export is the metrics object of the result line of a run of workload. A
// metric that another workload's run measures is reported as 0.
func (m *metricSet) export(workload string) (map[string]metricValue, error) {
	if miss := m.missing(workload); len(miss) > 0 {
		return nil, fmt.Errorf("metrics never measured: %v", miss)
	}
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{Value: m.values[d.name], Unit: d.unit}
	}
	return out, nil
}
