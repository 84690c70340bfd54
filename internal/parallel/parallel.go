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

// For runs body(lo, hi) over a partition of [0, n) using up to MaxWorkers
// goroutines. grain is the minimum chunk size per task; if n/grain is less
// than two the loop runs inline on the calling goroutine. body must be safe
// to call concurrently for disjoint ranges.
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := MaxWorkers()
	chunks := n / grain
	if chunks > workers {
		chunks = workers
	}
	if chunks <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	var pan panicBox
	wg.Add(chunks)
	// Even split; chunk c covers [c*size+min(c,rem), ...).
	size, rem := n/chunks, n%chunks
	lo := 0
	for c := 0; c < chunks; c++ {
		hi := lo + size
		if c < rem {
			hi++
		}
		go func(lo, hi int) {
			defer wg.Done()
			defer pan.capture()
			body(lo, hi)
		}(lo, hi)
		lo = hi
	}
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

// ForEachIndex runs body(i) for each i in [0, n) in parallel with automatic
// chunking. Convenience wrapper over For.
func ForEachIndex(n, grain int, body func(i int)) {
	For(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
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
// or nil when it runs [0, n) as one call: one worker, one item, or less
// total weight than a second goroutine pays for. A kernel that sizes each
// chunk's output before running it partitions with this and runs the
// ranges with ForRanges.
func WeightedBounds(n int, cum []int) []int {
	workers := MaxWorkers()
	if workers <= 1 || n <= 1 || cum[n] < 2048 {
		return nil
	}
	if bounds := PartitionByWeight(n, workers, cum); len(bounds) > 2 {
		return bounds
	}
	return nil
}

// ForWeighted runs body over [0, n) partitioned by the cumulative weight
// array cum (length n+1), balancing total weight rather than index count.
// Used for nnz-balanced row loops over CSR matrices.
func ForWeighted(n int, cum []int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	bounds := WeightedBounds(n, cum)
	if bounds == nil {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	var pan panicBox
	wg.Add(len(bounds) - 1)
	for k := 0; k+1 < len(bounds); k++ {
		go func(lo, hi int) {
			defer wg.Done()
			defer pan.capture()
			body(lo, hi)
		}(bounds[k], bounds[k+1])
	}
	wg.Wait()
	pan.repanic()
}
