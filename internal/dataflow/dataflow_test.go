package dataflow

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphblas/internal/parallel"
)

// edgeSet collects the graph's edges as (from, to) pairs for comparison.
func edgeSet(g *Graph) map[[2]int]bool {
	set := map[[2]int]bool{}
	for i := 0; i < g.Nodes(); i++ {
		for _, s := range g.Succ(i) {
			set[[2]int{i, int(s)}] = true
		}
	}
	return set
}

// TestBuildHazards checks the hazard table case by case: each row is a tiny
// program over object ids, with the exact dependency edges it must induce.
func TestBuildHazards(t *testing.T) {
	w := func(out uint64, reads ...uint64) OpMeta { return OpMeta{Out: out, Reads: reads, Overwrites: true} }
	acc := func(out uint64, reads ...uint64) OpMeta { return OpMeta{Out: out, Reads: reads, Overwrites: false} }
	cases := []struct {
		name  string
		ops   []OpMeta
		edges [][2]int
		raw   int
		waw   int
		war   int
	}{
		{
			name:  "RAW: reader depends on last writer",
			ops:   []OpMeta{w(1, 10), w(2, 1)},
			edges: [][2]int{{0, 1}},
			raw:   1,
		},
		{
			name: "RAW: only the *latest* writer",
			ops:  []OpMeta{w(1, 10), w(1, 11), w(2, 1)},
			// op2 reads obj 1 written by op1; op0's write is superseded. The
			// op0→op1 edge is the WAW.
			edges: [][2]int{{0, 1}, {1, 2}},
			raw:   1,
			waw:   1,
		},
		{
			name:  "WAW: same output twice",
			ops:   []OpMeta{w(1, 10), w(1, 11)},
			edges: [][2]int{{0, 1}},
			waw:   1,
		},
		{
			name: "WAR: overwrite waits for earlier reader",
			ops:  []OpMeta{w(2, 1), w(1, 10)},
			// op0 reads obj 1; op1 replaces obj 1's store wholesale.
			edges: [][2]int{{0, 1}},
			war:   1,
		},
		{
			name: "accumulate reads own output (RAW to previous writer)",
			ops:  []OpMeta{w(1, 10), acc(1, 11)},
			// The accumulator consults obj 1's prior content: a true flow
			// dependence, classified RAW (dedup ranks RAW over WAW).
			edges: [][2]int{{0, 1}},
			raw:   1,
		},
		{
			name:  "independent chains share no edges",
			ops:   []OpMeta{w(1, 10), w(2, 1), w(3, 11), w(4, 3)},
			edges: [][2]int{{0, 1}, {2, 3}},
			raw:   2,
		},
		{
			name: "shared operand alone induces no edge",
			ops:  []OpMeta{w(1, 10), w(2, 10)},
		},
		{
			name: "dedup: reader of two outputs of one op",
			ops:  []OpMeta{w(1, 10), w(2, 1), acc(2, 1)},
			// op2 reads obj 1 (RAW on op0... no: obj1 written by op0) and obj 2
			// (its own output, written by op1): edges 0→2 (RAW), 1→2 (RAW via
			// own-output read, deduped with WAW), 0→1 (RAW).
			edges: [][2]int{{0, 1}, {0, 2}, {1, 2}},
			raw:   3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := Build(tc.ops)
			want := map[[2]int]bool{}
			for _, e := range tc.edges {
				want[e] = true
			}
			got := edgeSet(g)
			if len(got) != len(want) {
				t.Fatalf("edges = %v, want %v", got, want)
			}
			for e := range want {
				if !got[e] {
					t.Fatalf("missing edge %v; got %v", e, got)
				}
			}
			raw, waw, war := g.EdgeKinds()
			if raw != tc.raw || waw != tc.waw || war != tc.war {
				t.Fatalf("edge kinds = RAW %d, WAW %d, WAR %d; want %d %d %d",
					raw, waw, war, tc.raw, tc.waw, tc.war)
			}
			if g.Edges() != len(tc.edges) {
				t.Fatalf("Edges() = %d, want %d", g.Edges(), len(tc.edges))
			}
		})
	}
}

// TestRunRespectsDependencies executes a diamond DAG with many workers and
// verifies every node ran exactly once, after all of its dependencies.
func TestRunRespectsDependencies(t *testing.T) {
	// 0 → {1, 2} → 3, plus a free-standing chain 4 → 5.
	ops := []OpMeta{
		{Out: 1, Reads: []uint64{100}, Overwrites: true},
		{Out: 2, Reads: []uint64{1}, Overwrites: true},
		{Out: 3, Reads: []uint64{1}, Overwrites: true},
		{Out: 4, Reads: []uint64{2, 3}, Overwrites: true},
		{Out: 5, Reads: []uint64{101}, Overwrites: true},
		{Out: 6, Reads: []uint64{5}, Overwrites: true},
	}
	g := Build(ops)
	var mu sync.Mutex
	finished := make([]bool, len(ops))
	ran := make([]int32, len(ops))
	deps := map[int][]int{1: {0}, 2: {0}, 3: {1, 2}, 5: {4}}
	g.Run(4, func(i int) {
		mu.Lock()
		for _, d := range deps[i] {
			if !finished[d] {
				t.Errorf("node %d started before dependency %d finished", i, d)
			}
		}
		mu.Unlock()
		atomic.AddInt32(&ran[i], 1)
		mu.Lock()
		finished[i] = true
		mu.Unlock()
	})
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("node %d executed %d times", i, n)
		}
	}
}

// TestRunOverlapsIndependentNodes proves independent nodes really run
// concurrently: two nodes block on each other's arrival at a barrier, which
// only a parallel schedule can satisfy. (Safe on one CPU: channel waits
// yield the processor.)
func TestRunOverlapsIndependentNodes(t *testing.T) {
	ops := []OpMeta{
		{Out: 1, Reads: []uint64{100}, Overwrites: true},
		{Out: 2, Reads: []uint64{101}, Overwrites: true},
	}
	g := Build(ops)
	if g.Edges() != 0 {
		t.Fatalf("expected independent nodes, got %d edges", g.Edges())
	}
	barrier := make(chan struct{}, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Run(2, func(i int) {
			barrier <- struct{}{}
			// Wait until both nodes have arrived.
			for len(barrier) < 2 {
				time.Sleep(time.Millisecond)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("independent nodes did not overlap: Run deadlocked on the barrier")
	}
}

// TestRunMinPosDispatch verifies ready nodes are dispatched in ascending
// program order when a single worker drains a fully independent queue.
func TestRunMinPosDispatch(t *testing.T) {
	var ops []OpMeta
	for i := 0; i < 16; i++ {
		ops = append(ops, OpMeta{Out: uint64(1 + i), Reads: []uint64{100}, Overwrites: true})
	}
	g := Build(ops)
	var order []int
	g.Run(1, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("single-worker dispatch order %v is not program order", order)
		}
	}
}

// TestRunPanicReleasesDependents verifies a panicking node does not strand
// its dependents: every node still executes (or observes the panic),
// and the panic resurfaces to the caller as a *parallel.Panic.
func TestRunPanicReleasesDependents(t *testing.T) {
	ops := []OpMeta{
		{Out: 1, Reads: []uint64{100}, Overwrites: true},
		{Out: 2, Reads: []uint64{1}, Overwrites: true},
		{Out: 3, Reads: []uint64{2}, Overwrites: true},
	}
	g := Build(ops)
	var ran int32
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the node panic to resurface")
		}
		if _, ok := r.(*parallel.Panic); !ok {
			t.Fatalf("panic value = %T, want *parallel.Panic", r)
		}
		if n := atomic.LoadInt32(&ran); n != 3 {
			t.Fatalf("only %d of 3 nodes executed before the panic resurfaced", n)
		}
	}()
	g.Run(2, func(i int) {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			panic("node 0 exploded")
		}
	})
}

// TestRunWidthBound verifies the pool never runs more nodes at once than
// the worker bound allows.
func TestRunWidthBound(t *testing.T) {
	var ops []OpMeta
	for i := 0; i < 12; i++ {
		ops = append(ops, OpMeta{Out: uint64(1 + i), Reads: []uint64{100}, Overwrites: true})
	}
	g := Build(ops)
	var cur, peak int32
	rs := g.Run(3, func(i int) {
		n := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
	})
	if peak > 3 {
		t.Fatalf("observed %d concurrent nodes with a 3-worker bound", peak)
	}
	if rs.MaxWidth < 1 || rs.MaxWidth > 3 {
		t.Fatalf("RunStats.MaxWidth = %d, want within [1, 3]", rs.MaxWidth)
	}
}

// TestRunChainIsSequential verifies a fully dependent chain reports width 1:
// hazards leave nothing to overlap.
func TestRunChainIsSequential(t *testing.T) {
	var ops []OpMeta
	for i := 0; i < 8; i++ {
		ops = append(ops, OpMeta{Out: uint64(i + 1), Reads: []uint64{uint64(i)}, Overwrites: true})
	}
	g := Build(ops)
	if g.Edges() != len(ops)-1 {
		t.Fatalf("chain built %d edges, want %d", g.Edges(), len(ops)-1)
	}
	rs := g.Run(4, func(i int) { time.Sleep(time.Millisecond) })
	if rs.MaxWidth != 1 {
		t.Fatalf("dependent chain ran with width %d, want 1", rs.MaxWidth)
	}
}

func TestRunEmpty(t *testing.T) {
	rs := Build(nil).Run(4, func(int) { t.Fatal("exec called on empty graph") })
	if rs.MaxWidth != 0 {
		t.Fatalf("MaxWidth = %d on empty graph", rs.MaxWidth)
	}
}

// refBuild is the hazard DAG the way Build computed it with maps before it
// numbered its objects: the oracle for the slice-indexed build.
func refBuild(ops []OpMeta) (succ [][]int32, raw, waw, war int) {
	succ = make([][]int32, len(ops))
	lastWriter := map[uint64]int{}
	readers := map[uint64][]int32{}
	for k := range ops {
		op := &ops[k]
		deps := map[int32]bool{}
		addDep := func(j int32, kind *int) {
			if deps[j] {
				return
			}
			deps[j] = true
			succ[j] = append(succ[j], int32(k))
			*kind++
		}
		reads := op.Reads
		if !op.Overwrites {
			reads = append(append([]uint64(nil), op.Reads...), op.Out)
		}
		for _, r := range reads {
			if w, ok := lastWriter[r]; ok {
				addDep(int32(w), &raw)
			}
			readers[r] = append(readers[r], int32(k))
		}
		if w, ok := lastWriter[op.Out]; ok {
			addDep(int32(w), &waw)
		}
		for _, rd := range readers[op.Out] {
			if int(rd) != k {
				addDep(rd, &war)
			}
		}
		lastWriter[op.Out] = k
		delete(readers, op.Out)
	}
	return succ, raw, waw, war
}

// TestBuildMatchesMapReference: over random programs — object ids dense,
// sparse or huge, reads repeated, accumulating ops, outputs read by their
// own op — Build yields the map-based build's successor lists in the same
// order, the same edge kinds and the same in-degrees, and a numbered copy of
// the program (Number) the same graph again.
func TestBuildMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		nobj := 1 + rng.Intn(8)
		base := []uint64{0, 1 << 20, 1 << 62}[trial%3]
		ops := make([]OpMeta, rng.Intn(30))
		for k := range ops {
			ops[k].Out = base + uint64(rng.Intn(nobj))*uint64(1+trial%5)
			for r := rng.Intn(4); r > 0; r-- {
				ops[k].Reads = append(ops[k].Reads, base+uint64(rng.Intn(nobj))*uint64(1+trial%5))
			}
			ops[k].Overwrites = rng.Intn(3) > 0
		}
		wantSucc, raw, waw, war := refBuild(ops)
		ids := []int{}
		for _, op := range ops {
			ids = append(ids, int(op.Out))
			for _, r := range op.Reads {
				ids = append(ids, int(r))
			}
		}
		Number(ids)
		numbered := make([]OpMeta, len(ops))
		for k, op := range ops {
			numbered[k] = OpMeta{Out: uint64(ids[0]), Reads: make([]uint64, len(op.Reads)), Overwrites: op.Overwrites}
			for j := range op.Reads {
				numbered[k].Reads[j] = uint64(ids[1+j])
			}
			ids = ids[1+len(op.Reads):]
		}
		for _, prog := range [][]OpMeta{ops, numbered} {
			g := Build(prog)
			if g.Nodes() != len(ops) {
				t.Fatalf("trial %d: %d nodes, want %d", trial, g.Nodes(), len(ops))
			}
			edges := 0
			indeg := make([]int, len(ops))
			for i := range ops {
				if fmt.Sprint(g.Succ(i)) != fmt.Sprint(append([]int32{}, wantSucc[i]...)) {
					t.Fatalf("trial %d: node %d successors %v, want %v (ops %+v)", trial, i, g.Succ(i), wantSucc[i], prog)
				}
				edges += len(wantSucc[i])
				for _, s := range wantSucc[i] {
					indeg[s]++
				}
			}
			for i := range ops {
				if g.Indeg(i) != indeg[i] {
					t.Fatalf("trial %d: node %d in-degree %d, want %d", trial, i, g.Indeg(i), indeg[i])
				}
			}
			r, w, a := g.EdgeKinds()
			if g.Edges() != edges || r != raw || w != waw || a != war {
				t.Fatalf("trial %d: %d edges (%d/%d/%d), want %d (%d/%d/%d)", trial, g.Edges(), r, w, a, edges, raw, waw, war)
			}
			g.Release()
		}
	}
}

// TestBuildAndRunAllocations: a flush's graph over numbered objects is one
// an earlier Release handed back, its run state is the graph's own, and its
// bookkeeping, arrays and ready queue come from the pool. Building and
// releasing a 24-op line allocates nothing, and neither does running a
// graph, since a line never starts a helper: no allocation, on a 600-op
// line as on a 24-op one, at one worker or four.
func TestBuildAndRunAllocations(t *testing.T) {
	line := func(n int) []OpMeta {
		var ops []OpMeta
		for k := 0; k < n; k++ {
			ops = append(ops, OpMeta{Out: uint64(k%2 + 1), Reads: []uint64{uint64((k + 1) % 2), 2}, Overwrites: true})
		}
		return ops
	}
	short, long := line(24), line(600)
	build := func() { Build(short).Release() }
	build()
	if allocs := testing.AllocsPerRun(50, build); allocs > 0 {
		t.Errorf("Build+Release allocates %.1f per call, want none: the released graph was not reused", allocs)
	}
	runAllocs := func(ops []OpMeta, workers int) float64 {
		g := Build(ops)
		defer g.Release()
		run := func() { g.Run(workers, func(int) {}) }
		run()
		return testing.AllocsPerRun(20, run)
	}
	const runBudget = 0 // the run's state is the graph's; no goroutine
	for _, workers := range []int{1, 4} {
		if a, b := runAllocs(short, workers), runAllocs(long, workers); a != runBudget || b != runBudget {
			t.Errorf("Run at %d workers allocates %.1f per call on 24 nodes and %.1f on 600, budget %d: the run's state, the in-degree copy or the ready queue is no longer reused, or a line started a helper", workers, a, b, runBudget)
		}
	}
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestRunLineStaysOnCaller: a chained flush — every node reading the one
// before — runs each node on the calling goroutine and starts no other, at
// any worker count.
func TestRunLineStaysOnCaller(t *testing.T) {
	var ops []OpMeta
	for i := 0; i < 12; i++ {
		ops = append(ops, OpMeta{Out: uint64(i + 1), Reads: []uint64{uint64(i)}, Overwrites: true})
	}
	g := Build(ops)
	defer g.Release()
	caller, before := goid(), runtime.NumGoroutine()
	ran := 0
	rs := g.Run(4, func(i int) {
		if id := goid(); id != caller {
			t.Errorf("node %d ran on goroutine %s, the caller is %s", i, id, caller)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("node %d saw %d goroutines, %d before the run: a helper started", i, n, before)
		}
		ran++
	})
	if ran != len(ops) || rs.MaxWidth != 1 {
		t.Fatalf("ran %d of %d nodes at width %d, want all at width 1", ran, len(ops), rs.MaxWidth)
	}
}

// TestRunWideFlushReachesTwo: eight independent chains at two workers and
// GOMAXPROCS 2 run two nodes side by side — the caller and the one helper
// it may start.
func TestRunWideFlushReachesTwo(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var ops []OpMeta
	for c := 0; c < 8; c++ {
		for k := 0; k < 4; k++ {
			out := uint64(100*c + k + 1)
			ops = append(ops, OpMeta{Out: out, Reads: []uint64{out - 1}, Overwrites: true})
		}
	}
	g := Build(ops)
	defer g.Release()
	var cur, peak atomic.Int32
	rs := g.Run(2, func(int) {
		n := cur.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
	})
	if rs.MaxWidth != 2 || peak.Load() != 2 {
		t.Fatalf("eight chains at two workers ran at width %d (observed %d), want 2", rs.MaxWidth, peak.Load())
	}
}

// TestRunCallerPanicWaitsForEveryNode: a panic in a node the caller runs is
// captured like a helper's, the nodes after it still run, and it reaches the
// caller as a *parallel.Panic naming the panicking frame only once every
// node has finished.
func TestRunCallerPanicWaitsForEveryNode(t *testing.T) {
	var ops []OpMeta
	for i := 0; i < 5; i++ {
		ops = append(ops, OpMeta{Out: uint64(i + 1), Reads: []uint64{uint64(i)}, Overwrites: true})
	}
	g := Build(ops)
	defer g.Release()
	ran := 0
	func() {
		defer func() {
			p, ok := recover().(*parallel.Panic)
			if !ok {
				t.Fatal("the caller-run node's panic did not resurface as a *parallel.Panic")
			}
			if !strings.Contains(string(p.Stack), "TestRunCallerPanicWaitsForEveryNode") {
				t.Errorf("the captured stack does not name the panicking frame:\n%s", p.Stack)
			}
		}()
		g.Run(2, func(i int) {
			ran++
			if i == 1 {
				panic("node 1 exploded")
			}
		})
	}()
	if ran != len(ops) {
		t.Fatalf("%d of %d nodes ran before the panic resurfaced", ran, len(ops))
	}
}

// lineCancel executes nodes until three have run, then skips the rest.
type lineCancel struct{ executed, skipped []int }

func (x *lineCancel) Exec(i int) { x.executed = append(x.executed, i) }
func (x *lineCancel) Stop() bool { return len(x.executed) == 3 }
func (x *lineCancel) Skip(i int) { x.skipped = append(x.skipped, i) }

// TestRunCancelMidLine: once stop fires partway down a line, the node the
// caller pops next and every one after it are skipped, each exactly once,
// and none of them executes.
func TestRunCancelMidLine(t *testing.T) {
	var ops []OpMeta
	for i := 0; i < 8; i++ {
		ops = append(ops, OpMeta{Out: uint64(i + 1), Reads: []uint64{uint64(i)}, Overwrites: true})
	}
	g := Build(ops)
	defer g.Release()
	var x lineCancel
	g.RunCancelable(2, &x)
	if executed, skipped := x.executed, x.skipped; fmt.Sprint(executed) != "[0 1 2]" || fmt.Sprint(skipped) != "[3 4 5 6 7]" {
		t.Fatalf("executed %v and skipped %v, want [0 1 2] and [3 4 5 6 7]", executed, skipped)
	}
}
