package main

import "fmt"

// sizes fixes every input dimension of the benchmark. The unit tests run the
// same code on a miniature.
type sizes struct {
	algoScale   int // algo-suite RMAT scale
	algoSources int // sources with precomputed oracle answers
	algoBlock   int // passes per block
	algoWarm    int // warm-up passes per set-up

	flushScale int // flush-small RMAT scale of each of the eight matrices
	flushReps  int // repetitions of the three flush shapes inside one op
	flushBlock int

	serveScale   int // graph of the three serving workloads
	serveBlock   int // serve-read requests per client and block, a multiple of 50
	shardBlock   int // shard2-read requests per block, a multiple of 20
	rwBlock      int // shard2-rw ops per client and block; deletes reach back one block
	rwWarm       int // shard2-rw warm-up ops per client and set-up
	compactAfter int // per-shard delta entries that trigger compaction in shard2-rw

	probeReps int // repetitions of a cheap layer probe; dear ones take a fixed fraction
}

var fullSizes = sizes{
	algoScale: 12, algoSources: 64, algoBlock: 24, algoWarm: 2,
	flushScale: 11, flushReps: 30, flushBlock: 15,
	serveScale: 13, serveBlock: 100, shardBlock: 40, rwBlock: 32, rwWarm: 8,
	compactAfter: 8192,
	probeReps:    30,
}

var tinySizes = sizes{
	algoScale: 7, algoSources: 4, algoBlock: 2, algoWarm: 1,
	flushScale: 6, flushReps: 2, flushBlock: 2,
	serveScale: 8, serveBlock: 50, shardBlock: 40, rwBlock: 8, rwWarm: 2,
	compactAfter: 256,
	probeReps:    3,
}

const edgeFactor = 8

// blockResult is what one block of ops produced.
type blockResult struct {
	lat    []float64 // one latency per op, ms
	failed int       // ops that errored, answered non-200, or failed their oracle
	win    window    // the timed section: the ops, without their checks
}

// workload is one set of inputs the benchmark runs. Block 0 is the warm-up
// deck; the timed blocks count from 1. Every block of a workload has the
// same composition, so a run may stop after any block.
type workload interface {
	// generate makes the inputs and the oracle's references from the seed.
	// It is not timed: the program never sees this work.
	generate(seed uint64)
	// setup constructs the program-side state from the inputs and runs the
	// fixed warm-up ops; its wall time is setup_s. It may be called again and
	// then starts over.
	setup(clients int) setupResult
	// block runs block b with the given number of concurrent callers against
	// the state the last setup left, then checks every answer.
	block(b, clients int) blockResult
	// finish runs the quiesced end-of-run checks.
	finish() (attempted, failed int)
	// clients is the number of concurrent callers of an untraced run.
	clients() int
	// blockSeconds is about how long one single-caller block takes on the
	// host the sizes were chosen on. The traced run turns --seconds into a
	// block count with it, so that its counts repeat exactly from run to
	// run however fast the host happens to be.
	blockSeconds() float64
	// counters reports the workload's own response-header tallies since the
	// last setup.
	counters() serveCounts
	// probe calls the public functions of the layers this workload exercises
	// directly, on the workload's inputs and the state the last setup left.
	// It runs once, after finish, at the end of the traced run.
	probe(p *prober)
}

// serveCounts tallies what the serving tier's response headers said.
type serveCounts struct {
	requests, shed, stale, degraded, retried int
	redoDepthMax                             int
}

type workloadInfo struct {
	name, why string
	build     func(sz sizes, tr *tracer) workload
}

// workloads lists the benchmark's workloads in the order they are reported.
// The one-line reasons are the ones BENCHMARK.json records.
var workloads = []workloadInfo{
	{"algo-suite", "BFS+SSSP+PageRank+CC+TriangleCount per op on RMAT-12: sparse/format kernels do the work, serve/shard/stream none", newAlgoSuite},
	{"flush-small", "batches of chained, independent and tiny flushes on 2048-vectors: enqueue, DAG build, fusion plan and dispatch dominate, kernels are tiny", newFlushSmall},
	{"serve-read", "1 client reads degree/khop/ppr/stats from one engine behind the HTTP handler with a steady snapshot: the default read path", newServeRead},
	{"shard2-read", "the same client reads the same graph from 2 shards: khop scatter-gather sets p50/p90, sharded PPR sets throughput; a shard-only change moves this and not serve-read", newShard2Read},
	{"shard2-rw", "2 clients write 32+32 edge updates then read 2 hops on 2 shards: every read recomposes the snapshot, deltas cross the compaction watermark", newShard2RW},
}

func findWorkload(name string) (workloadInfo, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadInfo{}, fmt.Errorf("unknown workload %q", name)
}

// warmed reports a set-up whose construction succeeded, from its warm-up ops.
func warmed(r blockResult) setupResult {
	s := setupResult{attempted: len(r.lat), failed: r.failed}
	if len(r.lat) > 0 {
		s.firstOpMs = r.lat[0]
	}
	return s
}
