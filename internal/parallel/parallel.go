// Package parallel provides the small shared-memory runtime used by the
// sparse kernels: a bounded parallel-for and load-balanced range
// partitioning. It is deliberately tiny; the point of the GraphBLAS design
// is that opacity of the collection objects lets the implementation
// parallelize internally without changing the API.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the number of goroutines any single parallel-for spawns.
// It defaults to GOMAXPROCS and can be lowered for tests.
var maxWorkers atomic.Int64

func init() {
	maxWorkers.Store(int64(runtime.GOMAXPROCS(0)))
	splitWork.Store(SplitWork)
}

// SetMaxWorkers sets the worker bound for subsequent parallel loops and
// returns the previous value. n < 1 is treated as 1.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(maxWorkers.Swap(int64(n)))
}

// MaxWorkers reports the current worker bound.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// SetMaxWorkersForTest sets the worker bound for the duration of a test and
// registers a cleanup restoring the previous value, so a test can never
// leak a lowered bound into later tests or packages. The parameter is the
// *testing.T/B/F (any value with a Cleanup method), kept as an interface so
// this package does not import testing.
func SetMaxWorkersForTest(t interface{ Cleanup(func()) }, n int) {
	prev := SetMaxWorkers(n)
	t.Cleanup(func() { SetMaxWorkers(prev) })
}

// SplitWork is the least work, in inner-loop steps, that a loop splits
// across workers for: a loop whose steps total less runs whole on the
// calling goroutine. It lies just past the size from which two workers beat
// one in wall time on every kernel family of BenchmarkAblation_SplitCrossover
// at -cpu 2: the pull, the last to win, lost at 119 958 edges and won from
// 244 227 (EXPERIMENTS.md E27). Below that, starting and joining a second
// goroutine, its stack and a chunk's scratch cost more than half the loop
// saves.
const SplitWork = 1 << 18

// splitWork is the floor the split rule reads: SplitWork, lowered only by
// SetSplitWorkForTest.
var splitWork atomic.Int64

// SetSplitWorkForTest lowers (or raises) the split floor for the duration of
// a test, so a fixture smaller than SplitWork can reach the chunked paths and
// an ablation can time a split below the crossover; the cleanup restores the
// previous floor.
func SetSplitWorkForTest(t interface{ Cleanup(func()) }, work int) {
	prev := splitWork.Swap(int64(work))
	t.Cleanup(func() { splitWork.Store(prev) })
}

// splits reports whether a loop of work inner-loop steps over n items runs in
// more than one range: more than one worker, more than one item, and at
// least the split floor of work.
func splits(n, work int) bool {
	return MaxWorkers() > 1 && n > 1 && int64(work) >= splitWork.Load()
}

// For runs body(lo, hi) over a partition of [0, n) into equal ranges, one
// per worker, when work — the loop's inner-loop steps, summed over all n
// items — reaches the split floor; otherwise it calls body(0, n). Range 0
// runs on the calling goroutine. body must be safe to call concurrently for
// disjoint ranges.
func For(n, work int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if !splits(n, work) {
		body(0, n)
		return
	}
	chunks := min(MaxWorkers(), n)
	// Chunk c covers [at(c), at(c+1)).
	size, rem := n/chunks, n%chunks
	at := func(c int) int { return c*size + min(c, rem) }
	var wg sync.WaitGroup
	var pan panicBox
	wg.Add(chunks - 1)
	for c := 1; c < chunks; c++ {
		go func(lo, hi int) {
			defer wg.Done()
			defer pan.capture()
			body(lo, hi)
		}(at(c), at(c+1))
	}
	pan.run(func() { body(0, at(1)) })
	wg.Wait()
	pan.repanic()
}

// Panic wraps a panic value captured on a worker goroutine together with
// that goroutine's stack at the moment of the panic. The caller's recover
// site runs on the invoking goroutine, whose stack no longer names the
// faulty operator — so the stack must be taken where the panic happened or
// the frame that matters is lost. Nested parallel loops pass an existing
// *Panic through unchanged to preserve the innermost capture.
type Panic struct {
	Val   any
	Stack []byte
}

// Error implements the error interface so a *Panic escaping through code
// that stringifies panic values still reads sensibly.
func (p *Panic) Error() string { return fmt.Sprintf("panic in parallel section: %v", p.Val) }

// panicBox transports the first panic from worker goroutines back to the
// caller, so user-defined operators that panic inside a parallel kernel
// surface on the invoking goroutine (where the GraphBLAS error model can
// convert them to GrB_PANIC) instead of crashing the process.
type panicBox struct {
	mu  sync.Mutex
	val *Panic
	set bool
}

func (p *panicBox) capture() {
	if r := recover(); r != nil {
		pv, ok := r.(*Panic)
		if !ok {
			pv = &Panic{Val: r, Stack: debug.Stack()}
		}
		p.mu.Lock()
		if !p.set {
			p.val, p.set = pv, true
		}
		p.mu.Unlock()
	}
}

// run calls f on the calling goroutine, capturing its panic as a worker's.
func (p *panicBox) run(f func()) {
	defer p.capture()
	f()
}

func (p *panicBox) repanic() {
	if p.set {
		panic(p.val)
	}
}

// Capture runs f and returns the panic it raised, if any, wrapped in a
// *Panic carrying the stack taken at the panic site (an existing *Panic
// value passes through unchanged, preserving the innermost capture). It is
// the per-task form of the panicBox used by the parallel loops: the DAG
// scheduler runs each flush node under Capture so one faulty operation
// cannot unwind a worker and strand the nodes that depend on it.
func Capture(f func()) (p *Panic) {
	defer func() {
		if r := recover(); r != nil {
			pv, ok := r.(*Panic)
			if !ok {
				pv = &Panic{Val: r, Stack: debug.Stack()}
			}
			p = pv
		}
	}()
	f()
	return nil
}

// PartitionByWeight splits [0, n) into at most parts contiguous ranges with
// approximately equal total weight, where cum is a cumulative weight array of
// length n+1 (cum[0] == 0, cum[i] is total weight of the first i items — the
// natural shape of a CSR row-pointer array). It returns the range boundaries:
// a slice b with b[0] == 0 and b[len(b)-1] == n; range k is [b[k], b[k+1]).
// Empty ranges are elided, so len(b) may be less than parts+1.
func PartitionByWeight(n, parts int, cum []int) []int {
	if parts < 1 {
		parts = 1
	}
	if n <= 0 {
		return []int{0, 0} // single empty range
	}
	total := cum[n]
	bounds := make([]int, 1, parts+1)
	bounds[0] = 0
	prev := 0
	for k := 1; k < parts; k++ {
		target := total * k / parts
		// binary search for first index with cum[i] >= target
		lo, hi := prev, n
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > prev && lo < n {
			bounds = append(bounds, lo)
			prev = lo
		}
	}
	bounds = append(bounds, n)
	return bounds
}

// ForRanges runs body(k, lo, hi) for each contiguous range k described by
// bounds (the shape PartitionByWeight returns: range k is
// [bounds[k], bounds[k+1])). Unlike ForWeighted it exposes the range
// ordinal, which deterministic kernels use to give each chunk its own
// scratch space and to lay results out in chunk order. Range 0 runs on the
// calling goroutine, every other range on a goroutine of its own, so a
// single range costs no goroutine at all; a panic in any of them reaches
// the caller after every range has finished.
func ForRanges(bounds []int, body func(k, lo, hi int)) {
	n := len(bounds) - 1
	if n <= 0 {
		return
	}
	if n == 1 {
		body(0, bounds[0], bounds[1])
		return
	}
	var wg sync.WaitGroup
	var pan panicBox
	wg.Add(n - 1)
	for k := 1; k < n; k++ {
		go func(k int) {
			defer wg.Done()
			defer pan.capture()
			body(k, bounds[k], bounds[k+1])
		}(k)
	}
	pan.run(func() { body(0, bounds[0], bounds[1]) })
	wg.Wait()
	pan.repanic()
}

// WeightedBounds returns the ranges ForWeighted splits [0, n) into by the
// cumulative weight array cum, laid out as PartitionByWeight lays them out,
// or nil when it runs [0, n) as one call: one worker, one item, or a total
// weight cum[n] under the split floor (SplitWork). cum counts inner-loop
// steps, the unit the floor is measured in. A kernel that sizes each
// chunk's output before running it partitions with this and runs the
// ranges with ForRanges.
func WeightedBounds(n int, cum []int) []int {
	if !splits(n, cum[n]) {
		return nil
	}
	if bounds := PartitionByWeight(n, MaxWorkers(), cum); len(bounds) > 2 {
		return bounds
	}
	return nil
}

// ForWeighted runs body over [0, n) partitioned by the cumulative weight
// array cum (length n+1, counted in inner-loop steps), balancing total
// weight rather than index count, as WeightedBounds splits it. Used for
// nnz-balanced row loops over CSR matrices.
func ForWeighted(n int, cum []int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	bounds := WeightedBounds(n, cum)
	if bounds == nil {
		body(0, n)
		return
	}
	ForRanges(bounds, func(_, lo, hi int) { body(lo, hi) })
}
