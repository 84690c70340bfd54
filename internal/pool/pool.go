// Package pool provides freelist-backed buffers for the kernel hot paths —
// ROADMAP item 5's allocation discipline made concrete. Two kinds of buffer
// come from it:
//
//   - Scratch: index prefix sums ([]int), per-chunk contribution counts
//     ([]int32), presence flags ([]bool) and dense value workspaces
//     (GetVals). A kernel draws it, uses it and returns it before it
//     returns itself. Allocating these per operation turns kernel
//     throughput into GC pressure proportional to matrix dimension; drawing
//     them from a freelist makes the steady state allocation-free.
//   - Value arrays (Vals): the Val of a vector a kernel produces, and — from
//     the int shelves — the index list of one. It leaves the kernel inside
//     its result, and comes back through Recycle when the store holding it
//     is superseded and nothing can reach it any more (internal/core
//     decides that; an index list several stores share comes back with the
//     last of them, internal/sparse counts them). An operation that
//     overwrites a vector therefore computes into the arrays of a vector
//     that died before it.
//
// The implementation is deliberately a mutex-guarded freelist rather than
// sync.Pool: Put'ing a slice into a sync.Pool boxes the slice header into an
// interface, which itself allocates — exactly the per-call allocation the
// pool exists to remove. The kernels call Get/Put once per operation or per
// parallel chunk (coarse-grained), so a plain mutex is never contended
// enough to matter.
//
// The two kinds are held differently. Index and flag scratch is shelved
// outright, as it always was, within a fixed budget of retained bytes.
// Value arrays — the typed scratch of GetVals too — are shelved as weak
// pointers: a shelved array is reused if a kernel asks for one before the
// next garbage collection, and is collected by it otherwise, so recycled
// values never count as live heap. Holding them strongly kept a megabyte
// more live at every collection, which raised every later heap goal and
// with it peak RSS by more than a tenth on the serving workloads.
//
// Contract: GetInts, GetInt32s, GetBools and Vals return a zeroed slice of
// length n. GetVals and RawVals return one whose contents are whatever its
// last holder left: they serve callers that write every position before
// they read it, or that keep only the positions they wrote (a merge's
// output, an exact-size result), and for those the clear was a second
// write of every element. Put* and Recycle hand a buffer to the freelist
// and the caller must not touch it afterwards. Buffers are shelved by
// power-of-two capacity class, so a recycled buffer always has capacity
// for the class it is shelved under; anything larger than the largest
// class, beyond a class's shelf or beyond the retained-bytes budget is
// simply dropped for the collector. Every Get must be matched by a Put on
// every path (or the buffer handed off to an owner who takes over the
// obligation) — the hotalloc analyzer enforces exactly this for
// //grblint:hotpath functions, and Outstanding counts the Gets not yet
// matched, for tests that check a run left none behind.
package pool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

// maxClass bounds the capacity classes: buffers up to 1<<maxClass elements
// are recycled, larger ones go to the collector (a 64M-entry scratch slice
// is not a steady-state shape; holding it forever would be a leak).
const maxClass = 26

// shelfCap bounds how many buffers a class retains; beyond it, Put drops
// the buffer. Workers × a small factor covers every engine shape.
const shelfCap = 64

// maxRetained bounds the bytes the scratch shelves together hold, so what
// the pool keeps alive between operations is a fixed cost.
const maxRetained = 8 << 20

var (
	// retained is the bytes currently on the scratch shelves.
	retained atomic.Int64
	// outstanding is the Gets not yet matched by a Put.
	outstanding atomic.Int64
)

// classFor returns the smallest class whose capacity 1<<class holds n.
func classFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// shelfFor returns the largest class a capacity c fully covers, so that a
// later get of that class can always reslice the buffer to the class
// length; ok is false for a buffer the shelves do not take.
func shelfFor(c int) (class int, ok bool) {
	if c == 0 {
		return 0, false
	}
	class = bits.Len(uint(c)) - 1 // floor log2: 1<<class <= cap
	return class, class <= maxClass
}

// bytesOf is the footprint of a buffer of capacity c.
func bytesOf[T any](c int) int64 {
	var zero T
	return int64(c) * int64(unsafe.Sizeof(zero))
}

// freelist is one scratch element type's shelves, one per capacity class.
type freelist[T any] struct {
	mu      sync.Mutex
	classes [maxClass + 1][][]T
}

// get returns a zeroed slice of length n, recycled when a buffer of n's
// class is shelved, freshly allocated at the class capacity otherwise.
func (f *freelist[T]) get(n int) []T {
	c := classFor(n)
	if c > maxClass {
		return make([]T, n)
	}
	f.mu.Lock()
	shelf := f.classes[c]
	if len(shelf) == 0 {
		f.mu.Unlock()
		return make([]T, n, 1<<c)
	}
	s := shelf[len(shelf)-1]
	shelf[len(shelf)-1] = nil
	f.classes[c] = shelf[:len(shelf)-1]
	f.mu.Unlock()
	retained.Add(-bytesOf[T](cap(s)))
	s = s[:n]
	clear(s)
	return s
}

// put shelves s, within the retained-bytes budget.
func (f *freelist[T]) put(s []T) {
	class, ok := shelfFor(cap(s))
	if !ok {
		return
	}
	b := bytesOf[T](cap(s))
	if retained.Add(b) > maxRetained {
		retained.Add(-b)
		return
	}
	f.mu.Lock()
	full := len(f.classes[class]) >= shelfCap
	if !full {
		f.classes[class] = append(f.classes[class], s[:0])
	}
	f.mu.Unlock()
	if full {
		retained.Add(-b)
	}
}

var (
	intFree   freelist[int]
	int32Free freelist[int32]
	boolFree  freelist[bool]
)

// GetInts returns a zeroed []int of length n from the freelist.
func GetInts(n int) []int {
	outstanding.Add(1)
	return intFree.get(n)
}

// PutInts returns an int buffer to the freelist; the caller must not use it
// afterwards.
func PutInts(s []int) {
	outstanding.Add(-1)
	intFree.put(s)
}

// GetInt32s returns a zeroed []int32 of length n from the freelist.
func GetInt32s(n int) []int32 {
	outstanding.Add(1)
	return int32Free.get(n)
}

// PutInt32s returns an int32 buffer to the freelist; the caller must not
// use it afterwards.
func PutInt32s(s []int32) {
	outstanding.Add(-1)
	int32Free.put(s)
}

// GetBools returns a zeroed []bool of length n from the freelist.
func GetBools(n int) []bool {
	outstanding.Add(1)
	return boolFree.get(n)
}

// PutBools returns a bool buffer to the freelist; the caller must not use
// it afterwards.
func PutBools(s []bool) {
	outstanding.Add(-1)
	boolFree.put(s)
}

// shelved is a value array on a shelf: a weak pointer to its first element
// and its capacity.
type shelved[T any] struct {
	first weak.Pointer[T]
	cap   int
}

// array returns the shelved array, nil once the collector has taken it.
func (e shelved[T]) array() []T {
	p := e.first.Value()
	if p == nil {
		return nil
	}
	return unsafe.Slice(p, e.cap)
}

// valueList is one value domain's weak shelves, one per capacity class.
type valueList[T any] struct {
	mu      sync.Mutex
	classes [maxClass + 1][]shelved[T]
}

// get returns a slice of length n: the most recently shelved array of n's
// class the collector has not taken, cleared when clean is set and as its
// last holder left it otherwise, or a fresh one at the class capacity.
func (f *valueList[T]) get(n int, clean bool) []T {
	c := classFor(n)
	if c > maxClass {
		return make([]T, n)
	}
	f.mu.Lock()
	for shelf := f.classes[c]; len(shelf) > 0; shelf = f.classes[c] {
		e := shelf[len(shelf)-1]
		shelf[len(shelf)-1] = shelved[T]{}
		f.classes[c] = shelf[:len(shelf)-1]
		if s := e.array(); s != nil {
			f.mu.Unlock()
			s = s[:n]
			if clean {
				clear(s)
			}
			return s
		}
	}
	f.mu.Unlock()
	return make([]T, n, 1<<c)
}

// put shelves s weakly and reports whether it did.
func (f *valueList[T]) put(s []T) bool {
	class, ok := shelfFor(cap(s))
	if !ok {
		return false
	}
	e := shelved[T]{weak.Make(&s[:1][0]), cap(s)}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.classes[class]) >= shelfCap {
		return false
	}
	f.classes[class] = append(f.classes[class], e)
	return true
}

var (
	intVals     valueList[int]
	int32Vals   valueList[int32]
	int64Vals   valueList[int64]
	float32Vals valueList[float32]
	float64Vals valueList[float64]
	boolVals    valueList[bool]
)

// valsFor returns the shelves of the value domain T: one of the number
// domains the kernels compile loops for (int, int32, int64, float32,
// float64, bool), nil for any other, whose arrays are left to the
// collector.
func valsFor[T any]() *valueList[T] {
	var f any
	switch any((*T)(nil)).(type) {
	case *float64:
		f = &float64Vals
	case *float32:
		f = &float32Vals
	case *int64:
		f = &int64Vals
	case *int32:
		f = &int32Vals
	case *int:
		f = &intVals
	case *bool:
		f = &boolVals
	default:
		return nil
	}
	return f.(*valueList[T])
}

// GetVals returns a scratch value array of length n, drawn from T's shelves
// when T is a number domain. Its contents are undefined: the caller writes
// each position before it reads it.
func GetVals[T any](n int) []T {
	outstanding.Add(1)
	return RawVals[T](n)
}

// PutVals returns a scratch value array drawn by GetVals; the caller must
// not use it afterwards.
func PutVals[T any](s []T) {
	outstanding.Add(-1)
	Recycle(s)
}

// Vals returns a zeroed value array of length n for a kernel's result,
// drawn from T's shelves when T is a number domain. It carries no Put
// obligation: it lives as long as the vector it is stored in, and comes
// back through Recycle once that vector's store is superseded.
func Vals[T any](n int) []T {
	if f := valsFor[T](); f != nil {
		return f.get(n, true)
	}
	return make([]T, n)
}

// RawVals is Vals without the clear: a result array whose contents are
// whatever its last holder left, for a kernel that writes every position it
// keeps. One that relies on an unwritten position reading zero — a row
// pointer whose empty rows are never written — draws with Vals.
func RawVals[T any](n int) []T {
	if f := valsFor[T](); f != nil {
		return f.get(n, false)
	}
	return make([]T, n)
}

// Recycle shelves the value array of a store nothing can reach any more,
// and reports whether it did: false for a domain outside the number set, an
// empty array, or one its class has no room for. The caller must be its
// last holder.
func Recycle[T any](s []T) bool {
	if f := valsFor[T](); f != nil {
		return f.put(s)
	}
	return false
}

// Holds reports whether the array under s overlaps one on T's shelves —
// the value shelves, which vector values and pooled index lists go back
// to, and for int, int32 and bool the scratch freelist too. A store's
// values and positions must never do so while anything can still reach the
// store. For tests of the recycling discipline.
func Holds[T any](s []T) bool {
	if cap(s) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	hi := lo + uintptr(bytesOf[T](cap(s)))
	overlaps := func(b []T) bool {
		blo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		return cap(b) > 0 && blo < hi && lo < blo+uintptr(bytesOf[T](cap(b)))
	}
	if f := valsFor[T](); f != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, shelf := range f.classes {
			for _, e := range shelf {
				if b := e.array(); b != nil && overlaps(b) {
					return true
				}
			}
		}
	}
	if f := scratchFor[T](); f != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, shelf := range f.classes {
			for _, b := range shelf {
				if overlaps(b[:cap(b)]) {
					return true
				}
			}
		}
	}
	return false
}

// scratchFor returns the scratch freelist of T, nil for a type with none.
func scratchFor[T any]() *freelist[T] {
	var f any
	switch any((*T)(nil)).(type) {
	case *int:
		f = &intFree
	case *int32:
		f = &int32Free
	case *bool:
		f = &boolFree
	default:
		return nil
	}
	return f.(*freelist[T])
}

// Outstanding reports how many Get* and GetVals draws have not been matched
// by their Put yet, across the process: zero once every kernel that drew
// scratch has returned it.
func Outstanding() int64 { return outstanding.Load() }

// Retained reports the bytes the scratch shelves hold, never above the
// package's fixed budget. Value shelves hold nothing the collector cannot
// take.
func Retained() int64 { return retained.Load() }
