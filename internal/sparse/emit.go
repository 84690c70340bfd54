package sparse

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"graphblas/internal/parallel"
	"graphblas/internal/pool"
)

// Results written once. The paper keeps every vector opaque (§III), so the
// package owns the representation: a kernel writes each entry of its result
// once, into storage sized for the result, and a result shares the
// structure it has in common with an input instead of copying it.
//
//   - A vector's Idx is write-once. Nothing in the package writes into an
//     Idx it did not just allocate, so an output whose positions are an
//     input's — an apply, a union or intersection against a full operand, an
//     assign of a whole vector, a Clone — takes the input's Idx, clipped to
//     its length (x[:n:n]) so that an append on either side reallocates.
//   - A vector's Val is its own: every output draws it from internal/pool
//     (pool.Vals, an array of its size's class that a superseded store may
//     have left there), and no two vectors share one — which is what lets
//     the store that held it recycle it when it dies.
//   - A full vector's Idx is a prefix of one process-wide identity list
//     (identity), so no kernel writes 0…N−1 out again.
//   - A kernel that knows its entry count before it runs allocates that
//     count; one that does not emits into scratch and copies out the joined
//     chunks, so a result never keeps scratch capacity alive.
//   - A matrix kernel that does not know its counts writes its rows through
//     EmitCSR, the one builder of such results: each chunk appends its rows
//     into an arena of its own, and one join copies the arenas into arrays
//     of the result's exact size. No kernel builds per-row slice headers.

// ident is the identity list 0, 1, …, k−1 every full vector the package
// builds takes its positions from. It grows by replacement to the largest N
// asked for; a published list is never written again, so the vectors
// holding a prefix of an older one keep it intact.
var ident atomic.Pointer[[]int]

// identity returns 0, 1, …, n−1 as a prefix of the shared identity list,
// clipped to its length.
func identity(n int) []int {
	if n == 0 {
		return nil
	}
	for {
		cur := ident.Load()
		if cur != nil && len(*cur) >= n {
			return (*cur)[:n:n]
		}
		grown := make([]int, n)
		for i := range grown {
			grown[i] = i
		}
		if ident.CompareAndSwap(cur, &grown) {
			return grown
		}
	}
}

// vecOf returns the vector of size n storing val at the positions idx, or
// at every position — idx is then ignored and may be nil — when val holds
// n values.
func vecOf[T any](n int, idx []int, val []T) *Vec[T] {
	if len(val) == n {
		idx = identity(n)
	}
	return &Vec[T]{N: n, Idx: idx, Val: val}
}

// sharedIdx is an input's positions as an output with the same positions
// takes them: the input's array, clipped to its length.
func sharedIdx(idx []int) []int { return idx[:len(idx):len(idx)] }

// cloneVals is a copy of an input's values as an output's own, in an array
// from the pool.
func cloneVals[T any](val []T) []T {
	out := pool.Vals[T](len(val))
	copy(out, val)
	return out
}

// rowKernel is a kernel that emits at most one entry per row, in row order:
// dotCore's rows of A, pushParallel's fold over target columns.
type rowKernel[T any] interface {
	// most is how many entries rows [lo, hi) can emit.
	most(lo, hi int) int
	// emit writes the entries of rows [lo, hi) into idx and val from their
	// start and returns how many it wrote. A nil idx says every row emits,
	// so the positions are the rows and are not written.
	emit(lo, hi int, idx []int, val []T) int
}

// emitRows runs k over rows [0, n), split as parallel.ForWeighted splits
// them by the cumulative weights cum, and returns what it emitted as a
// vector of size n. exact says k emits exactly as many entries as most
// counts; then each chunk writes straight into the result, starting at the
// count of the chunks before it. Otherwise the chunks write into scratch
// regions sized by most and are joined into storage of the total's size.
//
//grblint:hotpath
func emitRows[T any, K rowKernel[T]](n int, cum []int, exact bool, k K) *Vec[T] {
	bounds := parallel.WeightedBounds(n, cum)
	chunks := 1
	if bounds != nil {
		chunks = len(bounds) - 1
	}
	// at[c] is where chunk c starts writing, at[chunks+1+c] how many it
	// wrote.
	at := pool.GetInts(2*chunks + 1)
	if bounds == nil {
		at[1] = k.most(0, n)
	} else {
		for c := 0; c < chunks; c++ {
			at[c+1] = at[c] + k.most(bounds[c], bounds[c+1])
		}
	}
	var w *Vec[T]
	if exact {
		most := at[chunks]
		var idx []int
		if most < n {
			idx = make([]int, most)
		}
		val := pool.Vals[T](most)
		runRows(k, n, bounds, at, idx, val)
		w = vecOf(n, idx, val)
	} else {
		w = joinRows(k, n, bounds, at)
	}
	pool.PutInts(at)
	return w
}

// joinRows is emitRows for a kernel that may emit fewer entries than most
// counts: the chunks write into a scratch index list and a value array
// sized by most, and what they wrote is copied out, chunk after chunk, into
// arrays of its exact size. The value array stays the result's when every
// row that could emit did, and goes back to the pool otherwise.
//
//grblint:hotpath
func joinRows[T any, K rowKernel[T]](k K, n int, bounds, at []int) *Vec[T] {
	chunks := len(at) / 2
	most := at[chunks]
	scratch := pool.GetInts(most)
	val := pool.Vals[T](most)
	runRows(k, n, bounds, at, scratch, val)
	total := 0
	for _, got := range at[chunks+1:] {
		total += got
	}
	var idx []int
	if total < n {
		idx = make([]int, total)
	}
	out := val
	if total < most {
		out = pool.Vals[T](total)
	}
	d := 0
	for c, got := range at[chunks+1:] {
		if idx != nil {
			copy(idx[d:], scratch[at[c]:at[c]+got])
		}
		if total < most {
			copy(out[d:], val[at[c]:at[c]+got])
		}
		d += got
	}
	pool.PutInts(scratch)
	if total < most {
		pool.Recycle(val)
	}
	return vecOf(n, idx, out)
}

// runRows runs k's chunks, chunk c writing into idx and val from at[c] and
// recording its count in at[chunks+1+c]. One chunk runs on the calling
// goroutine.
func runRows[T any, K rowKernel[T]](k K, n int, bounds, at []int, idx []int, val []T) {
	if bounds == nil {
		at[2] = k.emit(0, n, idx, val)
		return
	}
	got := at[len(bounds):]
	parallel.ForRanges(bounds, func(c, lo, hi int) {
		var ci []int
		if idx != nil {
			ci = idx[at[c]:at[c+1]]
		}
		got[c] = k.emit(lo, hi, ci, val[at[c]:at[c+1]])
	})
}

// Rows is the arena one chunk of a matrix kernel writes its result rows
// into, in row order: the kernel appends a row's entries to Idx and Val
// (directly, or through a row merge that appends) and closes the row with
// End. A row never closed is empty. Rows are only ever appended, so an
// arena's contents are the chunk's rows back to back.
type Rows[T any] struct {
	Idx []int
	Val []T

	ptr    []int // the result's row pointer; End writes row i's count at i+1
	closed int   // len(Idx) when the last row was closed
	at     int   // where the chunk's entries start in the result
	pooled bool  // Idx and Val were drawn from the pool by Reserve
}

// Reserve gives the arena room for n entries. A kernel calls it once,
// before its first row, with a bound on what the chunk can write when it
// has one; appending past it grows the arena as append grows a slice.
func (r *Rows[T]) Reserve(n int) {
	r.Idx, r.Val = pool.GetVals[int](n)[:0], pool.GetVals[T](n)[:0]
	r.pooled = true
}

// End closes row i: the entries appended since the last row was closed are
// its.
func (r *Rows[T]) End(i int) {
	r.ptr[i+1] = len(r.Idx) - r.closed
	r.closed = len(r.Idx)
}

// Copy writes rows [lo, hi) of src, a matrix of the result's shape, as they
// are: one copy for the whole run.
func (r *Rows[T]) Copy(src *CSR[T], lo, hi int) {
	r.Idx = append(r.Idx, src.ColIdx[src.Ptr[lo]:src.Ptr[hi]]...)
	r.Val = append(r.Val, src.Val[src.Ptr[lo]:src.Ptr[hi]]...)
	for i := lo; i < hi; i++ {
		r.ptr[i+1] = src.Ptr[i+1] - src.Ptr[i]
	}
	r.closed = len(r.Idx)
}

// join copies the arena of rows [lo, hi) into c from position at, turning
// the rows' counts into c's row pointer as it goes.
func (r *Rows[T]) join(c *CSR[T], lo, hi int) {
	p := r.at
	for i := lo; i < hi; i++ {
		p += c.Ptr[i+1]
		c.Ptr[i+1] = p
	}
	copy(c.ColIdx[r.at:], r.Idx)
	copy(c.Val[r.at:], r.Val)
}

// EmitCSR builds the nrows×ncols result of a row kernel: the rows are split
// as parallel.ForWeighted splits them by the cumulative weights cum, and
// fill(out, lo, hi) writes rows [lo, hi) into its chunk's arena out, the
// chunks in parallel. One join then copies the arenas, chunk after
// chunk, into ColIdx and Val arrays of the result's exact size — in
// parallel, each chunk placing its own — and returns the arenas to the
// pool, on every path, a panicking fill included.
//
//grblint:hotpath
func EmitCSR[T any](nrows, ncols int, cum []int, fill func(out *Rows[T], lo, hi int)) *CSR[T] {
	c := NewCSR[T](nrows, ncols)
	bounds := parallel.WeightedBounds(nrows, cum)
	chunks := 1
	if bounds != nil {
		chunks = len(bounds) - 1
	}
	arenas := make([]Rows[T], chunks)
	defer releaseAll(arenas)
	for k := range arenas {
		arenas[k].ptr = c.Ptr
	}
	if bounds == nil {
		fill(&arenas[0], 0, nrows)
	} else {
		parallel.ForRanges(bounds, func(k, lo, hi int) { fill(&arenas[k], lo, hi) })
	}
	nnz := 0
	for k := range arenas {
		arenas[k].at = nnz
		nnz += len(arenas[k].Idx)
	}
	c.ColIdx, c.Val = make([]int, nnz), make([]T, nnz)
	if bounds == nil {
		arenas[0].join(c, 0, nrows)
	} else {
		parallel.ForRanges(bounds, func(k, lo, hi int) { arenas[k].join(c, lo, hi) })
	}
	return c
}

// releaseAll hands the arenas of an EmitCSR call back to the pool.
func releaseAll[T any](arenas []Rows[T]) {
	for _, r := range arenas {
		if r.pooled {
			pool.PutVals(r.Idx)
			pool.PutVals(r.Val)
		}
	}
}

// rowsAllowed counts the rows in [lo, hi) that store an entry and that mask
// allows: the rows a dot product over a full vector emits.
func rowsAllowed(ptr []int, mask *VecMask, lo, hi int) int {
	switch {
	case mask == nil:
		return nonEmpty(ptr, lo, hi)
	case mask.Comp:
		n := nonEmpty(ptr, lo, hi)
		for _, i := range within(mask.Structure, lo, hi) {
			n -= nonEmpty(ptr, i, i+1)
		}
		return n
	}
	n := 0
	for _, i := range within(mask.Idx, lo, hi) {
		n += nonEmpty(ptr, i, i+1)
	}
	return n
}

// nonEmpty counts the rows in [lo, hi) of the row pointer ptr that store an
// entry, without a branch: ptr[i]−ptr[i+1] is negative, its sign bit set,
// exactly when row i does.
func nonEmpty(ptr []int, lo, hi int) int {
	cur := ptr[lo:hi]
	next := ptr[lo+1 : hi+1]
	next = next[:len(cur)]
	n := 0
	for i, p := range cur {
		n += int(uint(p-next[i]) >> (bits.UintSize - 1))
	}
	return n
}

// within returns the part of the increasing list s that lies in [lo, hi).
func within(s []int, lo, hi int) []int {
	return s[sort.SearchInts(s, lo):sort.SearchInts(s, hi)]
}
