// Package dataflow is the dependency-DAG scheduler of the nonblocking
// execution engine. Section IV of the paper lets an implementation "defer
// execution" of queued methods and reorder work as long as the final result
// agrees with program order; this package supplies the machinery that makes
// deferral pay: at flush time the deferred sequence is converted into a
// dependency DAG over the opaque objects each operation reads and writes,
// and operations with no path between them execute concurrently on a
// bounded worker pool.
//
// Hazard model. Every operation writes exactly one output object and reads a
// set of input objects (operands and masks; an accumulating or merging
// operation also reads its own output). Three hazards order two operations
// that touch the same object, exactly the classic pipeline hazards:
//
//	RAW  (flow)  — an op reading X depends on the latest earlier writer of X.
//	WAW (output) — an op writing X depends on the previous writer of X.
//	WAR  (anti)  — an op writing X depends on every earlier reader of X
//	               since X's previous write (stores are replaced wholesale,
//	               so an in-flight reader must finish before the overwrite).
//
// All edges point from an earlier program position to a later one, so the
// graph is acyclic by construction and the first queued op is always ready.
//
// The scheduler dispatches ready operations to workers in ascending
// program-position order (a min-heap, not a FIFO). That policy is what makes
// the engine's deterministic fault-injection gate deadlock-free: a worker
// may block waiting for every earlier op to pass its injection site, and
// min-position dispatch guarantees the earliest unfinished op is always
// either running or the next one popped, never stranded behind blocked
// workers (see internal/faults.Sequencer).
//
// The package is semantics-free: it sees operations only as (out, reads,
// overwrites) triples plus an opaque executor callback. Program-order error
// selection, cancellation through invalid-object propagation, and rollback
// all live in internal/core.
package dataflow

import (
	"container/heap"
	"sync"

	"graphblas/internal/obs"
	"graphblas/internal/parallel"
)

// OpMeta is one deferred operation's data-access footprint, in program
// order: the identity of the object it writes, the identities of the
// objects it reads (operands and mask), and whether the write fully
// determines the output without consulting its prior content. Identities
// come from the engine's per-object id counter.
type OpMeta struct {
	Out        uint64
	Reads      []uint64
	Overwrites bool
}

// Graph is the immutable dependency DAG built over one flushed queue. Node i
// is the i-th schedulable operation in program order.
type Graph struct {
	succ  [][]int32 // successors (dependents) of each node
	indeg []int32   // incoming-edge count of each node
	edges int
	// Per-hazard edge counts, after deduplication assigns each edge the
	// strongest classification in RAW > WAW > WAR order.
	raw, waw, war int
}

// Build constructs the hazard DAG for ops. Edges are deduplicated: two
// operations sharing several objects (or several hazards on one object) are
// connected once. O(total reads + writes) expected time.
func Build(ops []OpMeta) *Graph {
	n := len(ops)
	g := &Graph{succ: make([][]int32, n), indeg: make([]int32, n)}
	// lastWriter[x] is the index of the most recent op writing object x;
	// readers[x] collects ops that read x since that write.
	lastWriter := make(map[uint64]int, n)
	readers := make(map[uint64][]int32)
	deps := make(map[int32]struct{}, 8) // dep set of the current node, reused
	for k := 0; k < n; k++ {
		op := &ops[k]
		for d := range deps {
			delete(deps, d)
		}
		addDep := func(j int32, kind *int) {
			if _, dup := deps[j]; dup {
				return
			}
			deps[j] = struct{}{}
			g.succ[j] = append(g.succ[j], int32(k))
			g.indeg[k]++
			g.edges++
			*kind++
		}
		reads := op.Reads
		if !op.Overwrites {
			// A merging/accumulating op consults its output's prior content:
			// model it as a read so the RAW edge to the previous writer (and
			// the WAR edges from it to later writers) materialize.
			reads = append(append(make([]uint64, 0, len(op.Reads)+1), op.Reads...), op.Out)
		}
		for _, r := range reads {
			if w, ok := lastWriter[r]; ok {
				addDep(int32(w), &g.raw)
			}
			readers[r] = append(readers[r], int32(k))
		}
		if w, ok := lastWriter[op.Out]; ok {
			addDep(int32(w), &g.waw)
		}
		for _, rd := range readers[op.Out] {
			if int(rd) != k {
				addDep(rd, &g.war)
			}
		}
		lastWriter[op.Out] = k
		// The write retires all recorded readers of Out: later writers need
		// only the WAW edge to this op, which transitively orders them after
		// those readers.
		delete(readers, op.Out)
	}
	return g
}

// Nodes reports the number of operations in the graph.
func (g *Graph) Nodes() int { return len(g.succ) }

// Edges reports the number of (deduplicated) hazard edges.
func (g *Graph) Edges() int { return g.edges }

// EdgeKinds reports the per-hazard edge counts (RAW, WAW, WAR). A deduped
// edge carrying several hazards is counted once, under the strongest kind.
func (g *Graph) EdgeKinds() (raw, waw, war int) { return g.raw, g.waw, g.war }

// Succ exposes node i's dependents (shared slice; callers must not mutate).
func (g *Graph) Succ(i int) []int32 { return g.succ[i] }

// Indeg reports node i's dependency count.
func (g *Graph) Indeg(i int) int { return int(g.indeg[i]) }

// RunStats describes one scheduler run.
type RunStats struct {
	// MaxWidth is the high-water number of operations that were executing
	// simultaneously — the realized parallelism of the flush.
	MaxWidth int
}

// minHeap is the ready queue: a min-heap of node indices, so the earliest
// ready operation in program order is always dispatched first.
type minHeap []int32

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(int32)) }
func (h *minHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Run executes every node on a pool of at most workers goroutines,
// dispatching a node only after all of its dependencies completed, earliest
// ready node first. exec is called exactly once per node and must not be nil.
//
// A panic escaping exec is captured per node (via parallel.Capture) rather
// than allowed to unwind: the node's dependents are still released — so the
// pool can never deadlock on a faulty node — and the first captured panic is
// re-raised, with the worker's stack preserved, after every node has
// completed. Callers that want per-node error semantics (internal/core does)
// should convert panics to errors inside exec instead.
func (g *Graph) Run(workers int, exec func(node int)) RunStats {
	return g.RunCancelable(workers, exec, nil, nil)
}

// RunCancelable is Run with cooperative cancellation. When stop is non-nil
// and returns true at dispatch time, the popped node is not executed:
// skip(node) is called in its place (outside the scheduler lock, exactly once
// per skipped node) and the node's dependents are still released, so the pool
// drains without deadlock and every node is observed exactly once — by exec
// or by skip. Nodes already executing when stop first reports true run to
// completion; cancellation stops *dispatch*, it does not interrupt kernels.
// A nil stop (or one that never fires) makes this identical to Run. skip must
// not panic; exec panics are captured per node as in Run.
func (g *Graph) RunCancelable(workers int, exec func(node int), stop func() bool, skip func(node int)) RunStats {
	n := len(g.succ)
	if n == 0 {
		return RunStats{}
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		ready     minHeap
		indeg     = append([]int32(nil), g.indeg...)
		remaining = n
		running   int
		maxWidth  int
		pan       *parallel.Panic
	)
	heap.Init(&ready)
	for i := int32(0); i < int32(n); i++ {
		if indeg[i] == 0 {
			heap.Push(&ready, i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			for {
				for len(ready) == 0 && remaining > 0 {
					cond.Wait()
				}
				if remaining == 0 {
					mu.Unlock()
					return
				}
				node := int(heap.Pop(&ready).(int32))
				canceled := stop != nil && stop()
				if !canceled {
					running++
					if running > maxWidth {
						maxWidth = running
					}
				}
				width := running
				mu.Unlock()
				var p *parallel.Panic
				if canceled {
					if skip != nil {
						skip(node)
					}
				} else {
					obs.DagDispatches.Inc()
					obs.DagWidth.SetMax(int64(width))
					p = parallel.Capture(func() { exec(node) })
				}

				mu.Lock()
				if !canceled {
					running--
				}
				if p != nil && pan == nil {
					pan = p
				}
				if p != nil {
					obs.DagPoisoned.Inc()
				}
				for _, s := range g.succ[node] {
					indeg[s]--
					if indeg[s] == 0 {
						heap.Push(&ready, s)
					}
				}
				remaining--
				// Wake everyone: newly ready nodes may outnumber one waiter,
				// and the remaining==0 exit must reach all parked workers.
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
	if pan != nil {
		panic(pan)
	}
	return RunStats{MaxWidth: maxWidth}
}
