// Package dataflow is the dependency-DAG scheduler of the nonblocking
// execution engine. Section IV of the paper lets an implementation "defer
// execution" of queued methods and reorder work as long as the final result
// agrees with program order; this package supplies the machinery that makes
// deferral pay: at flush time the deferred sequence is converted into a
// dependency DAG over the opaque objects each operation reads and writes,
// and operations with no path between them may execute concurrently: the
// flushing goroutine runs the graph itself and starts a bounded number of
// helpers only when independent operations are ready together.
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
// The scheduler dispatches ready operations in ascending program-position
// order (a min-heap, not a FIFO). That policy is what makes the engine's
// deterministic fault-injection gate deadlock-free: an executor may block
// waiting for every earlier op to pass its injection site, and min-position
// dispatch guarantees the earliest unfinished op is always either running
// or the next one popped — by the executor that made it ready, if no other
// took it — never stranded behind blocked executors (see
// internal/faults.Sequencer and DESIGN.md §7).
//
// The package is semantics-free: it sees operations only as (out, reads,
// overwrites) triples plus an opaque executor callback. Program-order error
// selection, cancellation through invalid-object propagation, and rollback
// all live in internal/core.
package dataflow

import (
	"slices"
	"sync"

	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/pool"
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
	// off and succ are the successor lists in compressed form: node i's
	// dependents are succ[off[i]:off[i+1]], ascending. indeg is each node's
	// incoming-edge count. The three share one array from the pool.
	off, succ, indeg []int32
	store            []int32
	// Per-hazard edge counts, after deduplication assigns each edge the
	// strongest classification in RAW > WAW > WAR order.
	raw, waw, war int
	// r is the state of a run of the graph (RunCancelable), kept with it so
	// that running a graph allocates nothing. help is r's helper body, bound
	// once for the graph's lifetime: a go statement with no arguments
	// starts it without allocating a closure.
	r    run
	help func()
}

// released holds graphs handed back by Release for the next Build, so a
// flush's graph, its run state included, is allocated once and reused. It is
// a free list, as internal/pool's are, not a sync.Pool: that one drops what
// it holds at every collection, and at random under the race detector.
var released struct {
	sync.Mutex
	graphs []*Graph
}

// maxReleased bounds the graphs kept for reuse: one per flush running at
// once, which the engine's contexts bound.
const maxReleased = 64

// newGraph returns a released graph, or a new one when none is left.
func newGraph() *Graph {
	released.Lock()
	defer released.Unlock()
	n := len(released.graphs)
	if n == 0 {
		return &Graph{}
	}
	g := released.graphs[n-1]
	released.graphs[n-1] = nil
	released.graphs = released.graphs[:n-1]
	return g
}

// Number rewrites ids — the object identities a flush refers to, in any
// order — into dense numbers 0, 1, …, k−1, equal ids to equal numbers, and
// returns k. Its scratch comes from the pool, so numbering a flush
// allocates nothing.
func Number(ids []int) int {
	keys := pool.GetInts(len(ids))
	copy(keys, ids)
	slices.Sort(keys)
	uniq := slices.Compact(keys)
	for k, id := range ids {
		//grblint:ignore swallowederr every id is in uniq, which holds them all
		ids[k], _ = slices.BinarySearch(uniq, id)
	}
	pool.PutInts(keys)
	return len(uniq)
}

// Build constructs the hazard DAG for ops. Edges are deduplicated: two
// operations sharing several objects (or several hazards on one object) are
// connected once. Object ids may be anything; ids already numbered densely
// (Number) are used as they are. O(total reads + writes) time, plus a sort
// of the ids when they are not dense; the bookkeeping is drawn from the
// pool, and the graph's arrays too, and the graph itself is one an earlier
// Release handed back (Release hands them all back).
func Build(ops []OpMeta) *Graph {
	refs, maxID := 0, uint64(0)
	for k := range ops {
		refs += 1 + len(ops[k].Reads)
		maxID = max(maxID, ops[k].Out)
		for _, r := range ops[k].Reads {
			maxID = max(maxID, r)
		}
	}
	// ids[at[k]] is op k's output's number, ids[at[k]+1:at[k+1]] its reads'.
	ids := pool.GetInts(refs)
	at := pool.GetInts(len(ops) + 1)
	for k := range ops {
		p := at[k]
		ids[p] = int(ops[k].Out)
		for j, r := range ops[k].Reads {
			ids[p+1+j] = int(r)
		}
		at[k+1] = p + 1 + len(ops[k].Reads)
	}
	objects := int(maxID) + 1
	if refs == 0 {
		objects = 0
	} else if maxID >= uint64(2*refs) {
		objects = Number(ids)
	}
	g := build(ops, ids, at, objects)
	pool.PutInts(at)
	pool.PutInts(ids)
	return g
}

// build is Build over numbered objects.
func build(ops []OpMeta, ids, at []int, objects int) *Graph {
	n := len(ops)
	// lastWriter[x] is 1 + the most recent op writing object x, 0 for none;
	// the ops that read x since that write are a list: head[x] is 1 + its
	// latest entry, an entry e names its reader rd[e] and links to
	// next[e] (1 + the entry before, 0 at the end).
	lastWriter := pool.GetInts(objects)
	head := pool.GetInts(objects)
	rd := pool.GetInts(len(ids) + n)[:0]
	next := pool.GetInts(len(ids) + n)[:0]
	// seen[j] == k+1 marks j as a dependency of op k already.
	seen := pool.GetInts(n)
	from := pool.GetInt32s(len(ids) + n)[:0] // the edges, in insertion order
	to := pool.GetInt32s(len(ids) + n)[:0]
	g := newGraph()
	for k := 0; k < n; k++ {
		op := &ops[k]
		addDep := func(j int, kind *int) {
			if seen[j] == k+1 {
				return
			}
			seen[j] = k + 1
			from, to = append(from, int32(j)), append(to, int32(k))
			*kind++
		}
		out := ids[at[k]]
		reads := ids[at[k]+1 : at[k+1]]
		read := func(r int) {
			if w := lastWriter[r]; w > 0 {
				addDep(w-1, &g.raw)
			}
			rd, next = append(rd, k), append(next, head[r])
			head[r] = len(rd)
		}
		for _, r := range reads {
			read(r)
		}
		if !op.Overwrites {
			// A merging/accumulating op consults its output's prior content:
			// model it as a read so the RAW edge to the previous writer (and
			// the WAR edges from it to later writers) materialize.
			read(out)
		}
		if w := lastWriter[out]; w > 0 {
			addDep(w-1, &g.waw)
		}
		for e := head[out]; e > 0; e = next[e-1] {
			if rd[e-1] != k {
				addDep(rd[e-1], &g.war)
			}
		}
		lastWriter[out] = k + 1
		// The write retires all recorded readers of Out: later writers need
		// only the WAW edge to this op, which transitively orders them after
		// those readers.
		head[out] = 0
	}
	// Lay the edges out by source, each source's targets ascending as they
	// were added.
	g.store = pool.Vals[int32](2*n + 1 + len(from))
	g.off, g.indeg, g.succ = g.store[:n+1], g.store[n+1:2*n+1], g.store[2*n+1:]
	for k, j := range from {
		g.off[j+1]++
		g.indeg[to[k]]++
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	fill := seen[:n] // reused: the next free slot of each source
	for i := 0; i < n; i++ {
		fill[i] = int(g.off[i])
	}
	for k, j := range from {
		g.succ[fill[j]] = to[k]
		fill[j]++
	}
	pool.PutInt32s(to)
	pool.PutInt32s(from)
	pool.PutInts(seen)
	pool.PutInts(next)
	pool.PutInts(rd)
	pool.PutInts(head)
	pool.PutInts(lastWriter)
	return g
}

// Release hands the graph's arrays back to the pool and the graph to the
// next Build, zeroed; the graph must not be used afterwards.
func (g *Graph) Release() {
	pool.Recycle(g.store)
	*g = Graph{help: g.help}
	released.Lock()
	if len(released.graphs) < maxReleased {
		released.graphs = append(released.graphs, g)
	}
	released.Unlock()
}

// Nodes reports the number of operations in the graph.
func (g *Graph) Nodes() int { return len(g.indeg) }

// Edges reports the number of (deduplicated) hazard edges.
func (g *Graph) Edges() int { return len(g.succ) }

// EdgeKinds reports the per-hazard edge counts (RAW, WAW, WAR). A deduped
// edge carrying several hazards is counted once, under the strongest kind.
func (g *Graph) EdgeKinds() (raw, waw, war int) { return g.raw, g.waw, g.war }

// Succ exposes node i's dependents (shared slice; callers must not mutate).
func (g *Graph) Succ(i int) []int32 { return g.succ[g.off[i]:g.off[i+1]] }

// Indeg reports node i's dependency count.
func (g *Graph) Indeg(i int) int { return int(g.indeg[i]) }

// RunStats describes one scheduler run.
type RunStats struct {
	// MaxWidth is the high-water number of operations that were executing
	// simultaneously — the realized parallelism of the flush.
	MaxWidth int
}

// readyQueue is the ready queue: a binary min-heap of node indices, so the
// earliest ready operation in program order is always dispatched first.
type readyQueue []int32

func (h *readyQueue) push(x int32) {
	q := append(*h, x)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

func (h *readyQueue) pop() int32 {
	q := *h
	x := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1] < q[c] {
			c++
		}
		if q[i] <= q[c] {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return x
}

// Executor is what a run calls for the nodes of a graph. Exec executes a
// node. Stop is asked at each dispatch whether the run was canceled, and
// Skip is called in place of Exec for a node not dispatched because it was.
type Executor interface {
	Exec(node int)
	Stop() bool
	Skip(node int)
}

// execFunc is the Executor of Run: exec alone, never canceled.
type execFunc func(node int)

func (f execFunc) Exec(node int) { f(node) }
func (execFunc) Stop() bool      { return false }
func (execFunc) Skip(int)        {}

// Run executes every node, dispatching a node only after all of its
// dependencies completed, earliest ready node first, on the calling
// goroutine and at most workers − 1 helpers. exec is called exactly once per
// node and must not be nil.
//
// A panic escaping exec is captured per node (via parallel.Capture) rather
// than allowed to unwind: the node's dependents are still released — so the
// run can never deadlock on a faulty node — and the first captured panic is
// re-raised, with the executing goroutine's stack preserved, after every
// node has completed. Callers that want per-node error semantics
// (internal/core does) should convert panics to errors inside exec instead.
func (g *Graph) Run(workers int, exec func(node int)) RunStats {
	return g.RunCancelable(workers, execFunc(exec))
}

// RunCancelable is Run with cooperative cancellation through x. When
// x.Stop returns true at dispatch time, the popped node is not executed:
// x.Skip(node) is called in its place (outside the scheduler lock, exactly
// once per skipped node) and the node's dependents are still released, so
// the run drains without deadlock and every node is observed exactly once
// — by Exec or by Skip. Nodes already executing when Stop first reports
// true run to completion; cancellation stops *dispatch*, it does not
// interrupt kernels. A Stop that never fires makes this identical to Run.
// Skip must not panic; Exec panics are captured per node as in Run.
//
// The caller runs the ready-node loop itself. A helper goroutine starts only
// when a node is left ready while every executor that could take it is busy,
// and never more than workers − 1 of them: a line of dependent nodes, or a
// flush of one, never leaves the calling goroutine, and a wide flush runs
// its nodes side by side. A helper that finds nothing ready waits for the
// next node and leaves when the last one completes; the caller returns only
// after every helper has left. The run's state is the graph's own, so one
// graph runs once at a time.
func (g *Graph) RunCancelable(workers int, x Executor) RunStats {
	n := g.Nodes()
	if n == 0 {
		return RunStats{}
	}
	if g.help == nil {
		g.help = g.r.help
	}
	r := &g.r
	*r = run{
		g: g, x: x,
		helpers:   min(max(workers, 1), n) - 1,
		ready:     readyQueue(pool.GetInt32s(n)[:0]),
		indeg:     pool.GetInt32s(n),
		remaining: n,
	}
	r.cond.L = &r.mu
	copy(r.indeg, g.indeg)
	for i := int32(0); i < int32(n); i++ {
		if r.indeg[i] == 0 {
			r.ready.push(i)
		}
	}
	r.mu.Lock()
	r.loop()
	r.wg.Wait()
	pool.PutInt32s(r.indeg)
	pool.PutInt32s(r.ready)
	pan, width := r.pan, r.maxWidth
	*r = run{}
	if pan != nil {
		panic(pan)
	}
	return RunStats{MaxWidth: width}
}

// run is one RunCancelable's state. mu guards the fields below it; cond
// wakes an idle executor when a node is left ready and every one when the
// last node completes.
type run struct {
	g  *Graph
	x  Executor
	wg sync.WaitGroup

	mu        sync.Mutex
	cond      sync.Cond
	helpers   int // helpers that may still be started
	idle      int // executors waiting for a ready node
	ready     readyQueue
	indeg     []int32
	remaining int // nodes not yet completed
	running   int // nodes executing now
	maxWidth  int
	pan       *parallel.Panic
}

// loop is the ready-node loop every executor runs, the caller and each
// helper alike: pop the earliest ready node, hand what else is ready to an
// idle executor or a new helper, execute the node, release its dependents.
// It is entered with mu held and returns with mu released, once the last
// node has completed.
func (r *run) loop() {
	for {
		for len(r.ready) == 0 && r.remaining > 0 {
			r.idle++
			r.cond.Wait()
			r.idle--
		}
		if r.remaining == 0 {
			r.mu.Unlock()
			return
		}
		node := int(r.ready.pop())
		if len(r.ready) > 0 {
			switch {
			case r.idle > 0:
				r.cond.Signal()
			case r.helpers > 0:
				r.helpers--
				r.wg.Add(1)
				go r.g.help()
			}
		}
		canceled := r.x.Stop()
		if !canceled {
			r.running++
			r.maxWidth = max(r.maxWidth, r.running)
		}
		width := r.running
		r.mu.Unlock()
		var p *parallel.Panic
		if canceled {
			r.x.Skip(node)
		} else {
			obs.DagDispatches.Inc()
			obs.DagWidth.SetMax(int64(width))
			p = parallel.Capture(func() { r.x.Exec(node) })
		}

		r.mu.Lock()
		if !canceled {
			r.running--
		}
		if p != nil {
			obs.DagPoisoned.Inc()
			if r.pan == nil {
				r.pan = p
			}
		}
		for _, s := range r.g.Succ(node) {
			r.indeg[s]--
			if r.indeg[s] == 0 {
				r.ready.push(s)
			}
		}
		r.remaining--
		if r.remaining == 0 {
			// The exit must reach every waiting helper.
			r.cond.Broadcast()
		}
	}
}

// help is a helper goroutine's body: the ready-node loop until the last
// node completes.
func (r *run) help() {
	defer r.wg.Done()
	r.mu.Lock()
	r.loop()
}
