// Package hotalloc holds the golden cases for the hotalloc analyzer:
// functions marked //grblint:hotpath must not allocate per loop iteration,
// must not build closures inside their loops, and must return every pooled
// buffer on every path.
package hotalloc

import (
	"errors"

	"pool"
)

// kernelGood allocates its output once at function scope, draws scratch from
// the pool, and returns it on the single exit.
//
//grblint:hotpath
func kernelGood(n int) []int {
	out := make([]int, 0, n)
	buf := pool.GetInts(n)
	for i := 0; i < n; i++ {
		out = append(out, buf[i]+i)
	}
	pool.PutInts(buf)
	return out
}

// makeInLoop is the per-iteration allocation shape: one heap object per row.
//
//grblint:hotpath
func makeInLoop(rows [][]int) int {
	total := 0
	for _, r := range rows {
		tmp := make([]int, len(r)) // want `make inside a hot loop allocates per iteration`
		copy(tmp, r)
		total += len(tmp)
	}
	return total
}

// sliceLitInLoop allocates a slice literal per iteration.
//
//grblint:hotpath
func sliceLitInLoop(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		w := []int{i, i + 1} // want `composite literal inside a hot loop allocates per iteration`
		total += w[0]
	}
	return total
}

// closureInLoop is the SpGEMM per-row mask-closure shape: the literal
// allocates per iteration and pins its captures on the heap.
//
//grblint:hotpath
func closureInLoop(rows [][]int, mask []bool) int {
	total := 0
	for i := range rows {
		allowed := func(j int) bool { return mask[j] } // want `closure created inside a hot loop`
		for _, j := range rows[i] {
			if allowed(j) {
				total++
			}
		}
	}
	return total
}

// chunkClosureGood shows the reset at the function-literal boundary: the
// worker body allocates per call, not per iteration of any enclosing loop,
// so its scratch make is fine — while the loop inside it is judged again.
//
//grblint:hotpath
func chunkClosureGood(chunks int, apply func(func(lo, hi int))) {
	apply(func(lo, hi int) {
		scratch := make([]int, 8)
		for i := lo; i < hi; i++ {
			scratch[i%8] = i
		}
		_ = scratch
	})
	_ = chunks
}

// coldMakeInLoop is not marked: the discipline is opt-in, so no findings.
func coldMakeInLoop(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		tmp := make([]int, 4)
		total += len(tmp)
	}
	return total
}

// leakyPool strands the buffer on the early error return.
//
//grblint:hotpath
func leakyPool(n int, fail bool) error {
	buf := pool.GetInts(n)
	if fail {
		return errors.New("validation failed") // want `pooled buffer from pool.GetInts at line \d+ may leak`
	}
	pool.PutInts(buf)
	return nil
}

// deferPutGood pins the return for every exit, the kernel idiom around
// multi-return bodies.
//
//grblint:hotpath
func deferPutGood(n int, fail bool) error {
	buf := pool.GetInts(n)
	defer pool.PutInts(buf)
	if fail {
		return errors.New("validation failed")
	}
	buf[0] = n
	return nil
}

// handoffGood transfers ownership out: the caller owes the Put.
//
//grblint:hotpath
func handoffGood(n int) []int {
	buf := pool.GetInts(n)
	return buf
}

// parkGood stores the buffer into a structure that owns it from then on.
//
//grblint:hotpath
func parkGood(n int, sink *struct{ scratch []int }) {
	buf := pool.GetBools(n)
	_ = buf
	ints := pool.GetInts(n)
	sink.scratch = ints
	pool.PutBools(buf)
}

// denseGood draws a typed scratch array from the value freelist and
// returns it; the result array it hands back carries no Put obligation.
//
//grblint:hotpath
func denseGood(n int) []float64 {
	dense := pool.GetVals[float64](n)
	out := pool.Vals[float64](n)
	for i := range out {
		out[i] = dense[i] + 1
	}
	pool.PutVals(dense)
	return out
}

// leakyVals strands the typed scratch array on the early return.
//
//grblint:hotpath
func leakyVals(n int, fail bool) []float64 {
	dense := pool.GetVals[float64](n)
	if fail {
		return nil // want `pooled buffer from pool.GetVals at line \d+ may leak`
	}
	pool.PutVals(dense)
	return nil
}

// discardedGet never binds the buffer at all.
//
//grblint:hotpath
func discardedGet(n int) {
	_ = pool.GetInts(n) // want `pooled buffer from pool.GetInts is discarded`
}

// wrongPut returns the bools buffer through the ints freelist — the walker
// keys retirement on the matching Put name, so this still leaks.
//
//grblint:hotpath
func wrongPut(n int) error {
	buf := pool.GetBools(n)
	pool.PutInts(nil)
	_ = buf
	return nil // want `pooled buffer from pool.GetBools at line \d+ may leak`
}

// suppressedAlloc shows the reviewed escape hatch for a measured-cold case.
//
//grblint:hotpath
func suppressedAlloc(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		//grblint:ignore hotalloc bounded by the descriptor count, measured never above 4
		tmp := make([]int, 4)
		total += len(tmp)
	}
	return total
}
