// Package sparse implements the storage substrate beneath the GraphBLAS
// objects: compressed sparse row (CSR) matrices, sorted sparse vectors, a
// coordinate-format builder, and the generic kernels (SpGEMM, SpMV/SpVM,
// union/intersection merges, transposition, slicing, reductions) that the
// core package composes into the Table-II operations of the paper.
//
// The package has no GraphBLAS semantics of its own: masks arrive as
// pre-resolved index patterns, semirings as plain Go functions. Everything is
// generic over the element type, mirroring the paper's separation between a
// collection and the algebra applied to it.
package sparse

import (
	"sort"
	"unsafe"

	"graphblas/internal/pool"
)

// Vec is a sparse vector of logical size N holding len(Idx) stored elements.
// Invariants: Idx is strictly increasing, len(Idx) == len(Val), and every
// index is in [0, N). Elements not stored are *undefined* (not implicit
// zeros), per Section III-A of the paper. Idx is write-once and may be
// shared with other vectors — a list from the pool counts the vectors
// holding it and goes back when the last is released; Val is the vector's
// own (emit.go).
type Vec[T any] struct {
	N   int
	Idx []int
	Val []T

	// hold counts the stores holding Idx when the list came from the pool:
	// &own when this vector drew it, the source's when it shares it, nil
	// for a list nobody recycles (emit.go).
	hold *idxHold
	own  idxHold
}

// NewVec returns an empty sparse vector of logical size n.
func NewVec[T any](n int) *Vec[T] { return &Vec[T]{N: n} }

// NVals reports the number of stored elements.
func (v *Vec[T]) NVals() int { return len(v.Idx) }

// Full reports whether v stores every one of its N positions. Idx is then
// exactly 0, 1, …, N−1 (strictly increasing over [0, N)), so position i
// sits in slot i and Val is the plain dense array: the vector kernels read
// it as one. The package builds every full vector's Idx as a prefix of one
// shared identity list (emit.go).
func (v *Vec[T]) Full() bool { return len(v.Idx) == v.N }

// ApproxBytes estimates the heap footprint of the vector storage for the
// observability layer's bytes-touched accounting.
func (v *Vec[T]) ApproxBytes() int64 {
	var elem T
	return int64(len(v.Idx))*int64(unsafe.Sizeof(int(0))) +
		int64(len(v.Val))*int64(unsafe.Sizeof(elem))
}

// Clone returns a copy of v: its own values over v's shared positions.
func (v *Vec[T]) Clone() *Vec[T] {
	w := &Vec[T]{N: v.N}
	if len(v.Idx) > 0 {
		shareIdx(w, v)
		w.Val = cloneVals(v.Val)
	}
	return w
}

// find returns the position of index i in v.Idx and whether it is present.
// If absent, the returned position is the insertion point.
func (v *Vec[T]) find(i int) (int, bool) {
	p := sort.SearchInts(v.Idx, i)
	return p, p < len(v.Idx) && v.Idx[p] == i
}

// Get returns the element at index i and whether it is stored.
func (v *Vec[T]) Get(i int) (T, bool) {
	if p, ok := v.find(i); ok {
		return v.Val[p], true
	}
	var zero T
	return zero, false
}

// Has reports whether index i is stored.
func (v *Vec[T]) Has(i int) bool {
	_, ok := v.find(i)
	return ok
}

// Resize changes the logical size to n, dropping stored elements at indices
// >= n. The shortened Idx is clipped to its length: its array may be shared.
func (v *Vec[T]) Resize(n int) {
	if n < v.N {
		p := sort.SearchInts(v.Idx, n)
		v.Idx = v.Idx[:p:p]
		v.Val = v.Val[:p]
	}
	v.N = n
}

// BuildVec constructs a sparse vector of size n from parallel index/value
// slices. Duplicate indices are combined with dup; if dup is nil duplicates
// are an error reported by returning ok == false. Indices out of range also
// report ok == false. The inputs are not modified.
//
// Strictly ascending indices — what a caller building from another vector's
// tuples hands over — are already in order and hold no duplicate, so one
// pass checks that and the range and the tuples are copied as they are;
// anything else is sorted first.
func BuildVec[T any](n int, idx []int, val []T, dup func(T, T) T) (v *Vec[T], ok bool) {
	v = NewVec[T](n)
	if len(idx) != len(val) {
		return nil, false
	}
	if len(idx) == 0 {
		return v, true
	}
	if ascending(idx) {
		if idx[0] < 0 || idx[len(idx)-1] >= n {
			return nil, false
		}
		var own []int
		if len(idx) < n { // otherwise idx is 0…n−1, and the result takes the identity list
			own = pool.RawVals[int](len(idx))
			copy(own, idx)
		}
		return pooledVec(n, own, cloneVals(val)), true
	}
	perm := make([]int, len(idx))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return idx[perm[a]] < idx[perm[b]] })
	v.Idx = make([]int, 0, len(idx))
	v.Val = make([]T, 0, len(idx))
	for _, p := range perm {
		i := idx[p]
		if i < 0 || i >= n {
			return nil, false
		}
		if k := len(v.Idx); k > 0 && v.Idx[k-1] == i {
			if dup == nil {
				return nil, false
			}
			v.Val[k-1] = dup(v.Val[k-1], val[p])
			continue
		}
		v.Idx = append(v.Idx, i)
		v.Val = append(v.Val, val[p])
	}
	return vecOf(n, v.Idx, v.Val), true
}

// ascending reports whether idx is strictly increasing.
func ascending(idx []int) bool {
	for k := 1; k < len(idx); k++ {
		if idx[k] <= idx[k-1] {
			return false
		}
	}
	return true
}

// Tuples returns copies of the stored indices and values in index order.
func (v *Vec[T]) Tuples() ([]int, []T) {
	return append([]int(nil), v.Idx...), append([]T(nil), v.Val...)
}

// Dense scatters v into a freshly allocated dense slice of length v.N along
// with a presence bitmap. Useful for pull-style kernels and oracles.
func (v *Vec[T]) Dense() ([]T, []bool) {
	d := make([]T, v.N)
	p := make([]bool, v.N)
	for k, i := range v.Idx {
		d[i] = v.Val[k]
		p[i] = true
	}
	return d, p
}

// FromDense gathers the marked entries of a dense slice into a sparse vector.
// It counts first, so Idx and Val are allocated once at their exact size;
// when every entry is marked the values are d's, copied, and the positions
// the shared identity list.
func FromDense[T any](d []T, present []bool) *Vec[T] {
	nnz := 0
	for _, p := range present {
		if p {
			nnz++
		}
	}
	if nnz == len(d) {
		return vecOf(len(d), nil, cloneVals(d))
	}
	idx, val := pool.RawVals[int](nnz), pool.RawVals[T](nnz)
	k := 0
	for i := range d {
		if present[i] {
			idx[k], val[k] = i, d[i]
			k++
		}
	}
	return pooledVec(len(d), idx, val)
}
