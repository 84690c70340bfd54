package obs

// Predeclared engine metrics. The always-on counters and gauges absorb what
// used to be ad-hoc atomics in internal/core's Stats plumbing; the
// histograms are fed only by kernel instrumentation and the MetricsTracer,
// both inert while no tracer is registered.

// timeBuckets span 1µs–10s: enqueue latencies sit at the bottom, scale-14
// SpGEMM flushes at the top.
var timeBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// nnzBuckets span single-element results through ~10M-edge frontiers.
var nnzBuckets = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7}

// bytesBuckets span a scalar write through multi-GB operands.
var bytesBuckets = []float64{64, 1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 30}

// depthBuckets cover flush batch sizes (powers of two up to 256 deferred ops).
var depthBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

var (
	// Sequence / queue lifecycle.
	OpsEnqueued = NewCounterVec("graphblas_ops_enqueued_total",
		"Operations entering the execution engine, by method name.", "op")
	OpsExecuted = NewCounterVec("graphblas_ops_executed_total",
		"Operations whose kernel ran to a committed result, by method name.", "op")
	OpsFailed = NewCounterVec("graphblas_ops_failed_total",
		"Operations that ended in execution error or short-circuit cancellation, by method name.", "op")
	OpsElided = NewCounter("graphblas_ops_elided_total",
		"Deferred operations pruned by dead-store elimination before scheduling.")
	OpsCanceled = NewCounter("graphblas_ops_canceled_total",
		"Deferred operations abandoned unexecuted because the flush context was canceled.")
	Flushes = NewCounter("graphblas_flushes_total",
		"Queue flushes (Wait, blocking-mode barriers, and forced materializations).")
	ParallelFlushes = NewCounter("graphblas_parallel_flushes_total",
		"Flushes executed by the DAG dataflow scheduler rather than sequentially.")
	FlushDepth = NewHistogram("graphblas_flush_depth",
		"Deferred operations retired per flush.", depthBuckets)
	QueueDepth = NewGauge("graphblas_queue_depth",
		"Deferred operations currently waiting in the nonblocking queue.")

	// DAG scheduler.
	DagDispatches = NewCounter("graphblas_dag_dispatches_total",
		"Nodes handed to DAG flush workers.")
	DagPoisoned = NewCounter("graphblas_dag_poisoned_total",
		"DAG nodes whose execution captured a panic (poisoned the schedule).")
	DagWidth = NewGauge("graphblas_dag_width_max",
		"High-water mark of simultaneously running DAG nodes.")
	DagNodes = NewCounter("graphblas_dag_nodes_total",
		"Nodes across all DAG-scheduled flushes.")
	DagEdges = NewCounter("graphblas_dag_edges_total",
		"Hazard edges (RAW/WAW/WAR) across all DAG-scheduled flushes.")

	// Format engine.
	FormatKernels = NewCounterVec("graphblas_format_kernels_total",
		"Kernel dispatches that consumed a non-CSR layout, by layout.", "layout")
	FormatConversions = NewCounter("graphblas_format_conversions_total",
		"Materializations of an alternate layout from the committed CSR store.")

	StoresRecycled = NewCounter("graphblas_stores_recycled_total",
		"Superseded vector stores whose value array went back to the free list once the operation that replaced them succeeded.")

	TransposeBuilds = NewCounter("graphblas_transpose_builds_total",
		"Builds of a matrix's cached transpose: a transposed read, or a dense frontier pulled, with none in hand.")
	MxVDirection = NewCounterVec("graphblas_mxv_direction_total",
		"Scatter products (mxv with a transposed matrix, vxm without) run on the CSR store, by the direction the engine ran them in.", "dir")

	// Streaming engine (internal/stream ingestion through core's queue).
	StreamBatches = NewCounter("graphblas_stream_batches_total",
		"Sealed update batches absorbed into a matrix's hypersparse delta overlay.")
	StreamEdges = NewCounter("graphblas_stream_edge_updates_total",
		"Edge inserts and deletes absorbed, counted after last-wins batch dedup.")
	StreamDeltaNNZ = NewGauge("graphblas_stream_delta_entries",
		"Updates resident in the most recently mutated matrix's delta overlay.")
	StreamMerges = NewCounter("graphblas_stream_merges_total",
		"Delta-to-main compactions published, policy-triggered or explicit.")
	StreamMergeBytes = NewCounter("graphblas_stream_merge_bytes_total",
		"Bytes of fresh main-store CSR written by delta-to-main compactions.")
	StreamEpochs = NewCounter("graphblas_stream_epochs_total",
		"Epoch publications across all matrices, one per compaction.")

	// Fault recovery.
	KernelRetries = NewCounter("graphblas_kernel_retries_total",
		"Fast-path kernel failures recovered by re-running on the generic CSR path.")
	Rollbacks = NewCounter("graphblas_rollbacks_total",
		"Transactional restores of an output's committed store after kernel failure.")
	FaultsInjected = NewCounter("graphblas_faults_injected_total",
		"Deterministic faults drawn by the injection harness.")

	// Span-derived (fed by MetricsTracer; empty until a tracer is set).
	SpanOutcomes = NewCounterVec("graphblas_span_outcomes_total",
		"Completed operation spans, by outcome.", "outcome")
	OpSeconds = NewHistogramVec("graphblas_op_seconds",
		"Enqueue-to-completion latency per operation, by method name.", "op", timeBuckets)
	OpQueueSeconds = NewHistogramVec("graphblas_op_queue_seconds",
		"Enqueue-to-schedule latency per operation, by method name.", "op", timeBuckets)
	OpBytes = NewHistogramVec("graphblas_op_bytes",
		"Estimated bytes touched per operation, by method name.", "op", bytesBuckets)

	// Kernel-level (fed by KernelStart; empty until a tracer is set).
	KernelSeconds = NewHistogramVec("graphblas_kernel_seconds",
		"Storage-kernel execution time, by kernel.", "kernel", timeBuckets)
	KernelNNZ = NewHistogramVec("graphblas_kernel_result_nnz",
		"Stored elements in each kernel's result, by kernel.", "kernel", nnzBuckets)
)

// ResetEngine zeroes every engine metric. Used by the core package's stats
// reset (test isolation) so counter assertions see only their own run.
func ResetEngine() { Default.Reset() }
