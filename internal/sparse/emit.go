package sparse

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"unsafe"

	"graphblas/internal/parallel"
	"graphblas/internal/pool"
)

// Results written once. The paper keeps every vector opaque (§III), so the
// package owns the representation: a kernel writes each entry of its result
// once, into storage sized for the result, and a result shares the
// structure it has in common with an input instead of copying it.
//
//   - A vector's Idx is write-once. A kernel that writes fresh positions
//     draws their list from internal/pool (pooledVec), and nothing in the
//     package writes into an Idx it did not just draw. An output whose
//     positions are an input's — an apply, a union or intersection against
//     a full operand, an assign of a whole vector, a select that keeps
//     everything, a Clone — takes the input's list through shareIdx,
//     clipped to its length (x[:n:n]) so that an append on either side
//     reallocates. A pooled list carries a hold count, kept in the vector
//     that drew it, where every sharer points: shareIdx adds one, and
//     Vec.Release, called by internal/core on a store nothing can reach any
//     more, drops one; the last store to let go returns the list to the
//     pool. A list the pool did not supply — the identity list, a matrix
//     row, an imported or deserialized array — carries no count and is
//     left to the collector.
//   - A vector's Val is its own: every output draws it from internal/pool
//     (pool.RawVals, an array of its size's class that a superseded store
//     may have left there, uncleared: the kernel writes every position it
//     keeps), and no two vectors share one — which is what lets the store
//     that held it recycle it when it dies.
//   - A full vector's Idx is a prefix of one process-wide identity list
//     (identity), so no kernel writes 0…N−1 out again.
//   - A kernel that knows its entry count before it runs allocates that
//     count; one that does not emits into scratch and copies out the joined
//     chunks, so a result never keeps scratch capacity alive.
//   - A matrix kernel that does not know its counts writes its rows through
//     EmitCSR, the one builder of such results: each chunk appends its rows
//     into an arena of its own, and one join copies the arenas into arrays
//     of the result's exact size. No kernel builds per-row slice headers.
//   - A matrix's Ptr, ColIdx and Val are its own: no two stores share one,
//     so a store nothing can reach any more gives all three back
//     (CSR.Release) without a count. The mask-shaped kernels — SelectCSR
//     and the masked products — draw theirs from the pool, where a freed or
//     overwritten result of the same shape left them. EmitCSR's results
//     stay exact-size: many are dropped, not released (a pinned epoch's
//     merged view), and a pooled array left to the collector costs up to
//     twice its length. An empty matrix's Ptr is a prefix of one shared
//     zero list (EmptyCSR), which nothing writes or releases.

// ident is the identity list 0, 1, …, k−1 every full vector the package
// builds takes its positions from (sharedPrefix).
var ident atomic.Pointer[[]int]

// identity returns 0, 1, …, n−1 as a prefix of the shared identity list,
// clipped to its length.
func identity(n int) []int {
	if n == 0 {
		return nil
	}
	return sharedPrefix(&ident, n, func(s []int) {
		for i := range s {
			s[i] = i
		}
	})
}

// sharedPrefix returns the first n entries of the process-wide list *p,
// clipped to their length. A list shorter than n is replaced by a longer
// one that fill writes; a published list is never written again, so the
// stores holding a prefix of an older one keep it intact.
func sharedPrefix(p *atomic.Pointer[[]int], n int, fill func([]int)) []int {
	for {
		cur := p.Load()
		if cur != nil && len(*cur) >= n {
			return (*cur)[:n:n]
		}
		grown := make([]int, n)
		fill(grown)
		if p.CompareAndSwap(cur, &grown) {
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

// idxHold is the hold count of one pooled index list: how many stores hold
// it. It lives in the vector that drew the list, and every vector sharing
// the list points at it, so counting adds no allocation; the list is
// recorded to its capacity, so that the last release shelves all of it.
type idxHold struct {
	n     atomic.Int32
	cap   int32
	first *int
}

// pooledVec returns the vector of size n storing val at the positions
// list[:len(val)], where list and val were drawn from the pool for it — at
// a bound on the count when the kernel did not know it: the vector owns the
// list, clipped to its length, and holds it once. A result with no entry or
// with every position keeps no list — the drawn one goes straight back — and
// a full one's positions are the identity list. An array drawn at a bound
// twice the count or more is copied into one of the count's class and goes
// back, so a result never keeps its bound's capacity alive.
func pooledVec[T any](n int, list []int, val []T) *Vec[T] {
	k := len(val)
	if k == 0 || k == n {
		pool.Recycle(list)
		return vecOf(n, nil, compact(val))
	}
	list = compact(list[:k])
	w := &Vec[T]{N: n, Idx: list[:k:k], Val: compact(val)}
	if cap(list) <= math.MaxInt32 { // a larger list is beyond every shelf
		w.own.n.Store(1)
		w.own.cap, w.own.first = int32(cap(list)), unsafe.SliceData(list)
		w.hold = &w.own
	}
	return w
}

// compact returns s in an array of its length's pool class: s itself when
// its capacity is below twice its length, a copy otherwise, s going back
// to the pool.
func compact[T any](s []T) []T {
	if cap(s) < 2*len(s) || cap(s) <= 1 {
		return s
	}
	c := pool.RawVals[T](len(s))
	copy(c, s)
	pool.Recycle(s)
	return c
}

// shareIdx gives w the positions of src, an input with the same positions:
// src's list clipped to its length, with one more hold on it when it came
// from the pool. It is the only way one vector takes another's Idx — the
// idxshare check of cmd/grblint holds the package to it — so every store
// holding a pooled list is counted.
func shareIdx[T, S any](w *Vec[T], src *Vec[S]) {
	w.Idx = src.Idx[:len(src.Idx):len(src.Idx)]
	if h := src.hold; h != nil {
		h.n.Add(1)
		w.hold = h
	}
}

// Release gives back what v holds, once nothing can reach v any more: its
// values go to the pool, and its hold on its positions is dropped — the
// last store to let go of a pooled list shelves the list too. It reports
// whether the values were shelved. The caller must be v's last holder and
// release it once.
func (v *Vec[T]) Release() bool {
	if h := v.hold; h != nil {
		v.hold = nil
		if h.n.Add(-1) == 0 {
			pool.Recycle(unsafe.Slice(h.first, h.cap))
			h.first = nil
		}
	}
	return pool.Recycle(v.Val)
}

// cloneVals is a copy of an input's values as an output's own, in an array
// from the pool.
func cloneVals[T any](val []T) []T {
	out := pool.RawVals[T](len(val))
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
			idx = pool.RawVals[int](most)
		}
		val := pool.RawVals[T](most)
		runRows(k, n, bounds, at, idx, val)
		w = pooledVec(n, idx, val)
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
	val := pool.RawVals[T](most)
	runRows(k, n, bounds, at, scratch, val)
	total := 0
	for _, got := range at[chunks+1:] {
		total += got
	}
	var idx []int
	if total < n {
		idx = pool.RawVals[int](total)
	}
	out := val
	if total < most {
		out = pool.RawVals[T](total)
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
	return pooledVec(n, idx, out)
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
// (directly, through a row merge that appends, or through one that writes
// by position into spare) and closes the row with End. A row never closed
// is empty. Rows are only ever appended, so an arena's contents are the
// chunk's rows back to back.
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

// spare is the arena's room past its entries, where a row merge that writes
// by position writes a row; grow then takes the n entries it wrote. The
// kernel's Reserve must have bounded the chunk.
func (r *Rows[T]) spare() ([]int, []T) {
	return r.Idx[len(r.Idx):cap(r.Idx)], r.Val[len(r.Val):cap(r.Val)]
}

func (r *Rows[T]) grow(n int) {
	r.Idx, r.Val = r.Idx[:len(r.Idx)+n], r.Val[:len(r.Val)+n]
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
