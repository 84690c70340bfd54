package sparse

import (
	"sort"
	"sync/atomic"
	"unsafe"

	"graphblas/internal/pool"
)

// CSR is a compressed-sparse-row matrix. Invariants: len(Ptr) == NRows+1,
// Ptr[0] == 0, Ptr is nondecreasing, ColIdx within each row is strictly
// increasing, len(ColIdx) == len(Val) == Ptr[NRows]. Absent elements are
// undefined, not implicit zeros.
type CSR[T any] struct {
	NRows, NCols int
	Ptr          []int
	ColIdx       []int
	Val          []T

	// keep marks a store whose arrays never go back to the pool: one a
	// reader holds beyond the operation that read it (Pin), or an empty
	// store whose Ptr is a prefix of the shared zero list (EmptyCSR).
	keep bool
}

// NewCSR returns an empty nrows-by-ncols matrix with a row pointer of its
// own, for a kernel to fill.
func NewCSR[T any](nrows, ncols int) *CSR[T] {
	return &CSR[T]{NRows: nrows, NCols: ncols, Ptr: make([]int, nrows+1)}
}

// zeros is the zero list every EmptyCSR takes its row pointer from
// (sharedPrefix).
var zeros atomic.Pointer[[]int]

// EmptyCSR returns an empty nrows-by-ncols matrix whose row pointer is a
// prefix of the shared zero list, so that it allocates none. Nothing may
// write into its Ptr: a kernel that fills rows starts from NewCSR. The
// store is never released.
func EmptyCSR[T any](nrows, ncols int) *CSR[T] {
	ptr := sharedPrefix(&zeros, nrows+1, func([]int) {})
	return &CSR[T]{NRows: nrows, NCols: ncols, Ptr: ptr, keep: true}
}

// Pin marks m as held beyond the operation that read it — by an iterator
// or a pinned epoch — so that Release never gives its arrays back. The
// caller holds the lock of the object m belongs to.
func (m *CSR[T]) Pin() { m.keep = true }

// Release gives m's Ptr, ColIdx and Val back to the pool once nothing can
// reach m any more, and reports whether its values were shelved. A pinned
// or empty-shared store (keep) gives nothing back. No two stores share a
// matrix array, so unlike a vector's index list none is counted. The
// caller must be m's last holder and release it once.
func (m *CSR[T]) Release() bool {
	if m.keep {
		return false
	}
	pool.Recycle(m.Ptr)
	pool.Recycle(m.ColIdx)
	return pool.Recycle(m.Val)
}

// NNZ reports the number of stored elements.
func (m *CSR[T]) NNZ() int { return m.Ptr[m.NRows] }

// ApproxBytes estimates the heap footprint of the matrix storage — the
// backing of Ptr, ColIdx, and Val — for the observability layer's
// bytes-touched accounting.
func (m *CSR[T]) ApproxBytes() int64 {
	var elem T
	return int64(len(m.Ptr)+len(m.ColIdx))*int64(unsafe.Sizeof(int(0))) +
		int64(len(m.Val))*int64(unsafe.Sizeof(elem))
}

// Row returns the column indices and values of row i as sub-slices of the
// matrix storage. Callers must not modify the returned slices' structure.
func (m *CSR[T]) Row(i int) ([]int, []T) {
	lo, hi := m.Ptr[i], m.Ptr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// Clone returns a deep copy of m.
func (m *CSR[T]) Clone() *CSR[T] {
	c := &CSR[T]{NRows: m.NRows, NCols: m.NCols}
	c.Ptr = append([]int(nil), m.Ptr...)
	c.ColIdx = append([]int(nil), m.ColIdx...)
	c.Val = append([]T(nil), m.Val...)
	return c
}

// find locates (i, j) and returns the storage position and presence.
func (m *CSR[T]) find(i, j int) (int, bool) {
	lo, hi := m.Ptr[i], m.Ptr[i+1]
	p := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	return p, p < hi && m.ColIdx[p] == j
}

// Get returns element (i, j) and whether it is stored.
func (m *CSR[T]) Get(i, j int) (T, bool) {
	if p, ok := m.find(i, j); ok {
		return m.Val[p], true
	}
	var zero T
	return zero, false
}

// Has reports whether element (i, j) is stored.
func (m *CSR[T]) Has(i, j int) bool {
	_, ok := m.find(i, j)
	return ok
}

// Set stores value x at (i, j). Insertion shifts trailing storage and is
// O(nnz); Build is the bulk path. Set and Remove edit m in place, so m
// must own its row pointer: never an EmptyCSR, whose Ptr is shared.
func (m *CSR[T]) Set(i, j int, x T) {
	p, ok := m.find(i, j)
	if ok {
		m.Val[p] = x
		return
	}
	m.ColIdx = append(m.ColIdx, 0)
	m.Val = append(m.Val, x)
	copy(m.ColIdx[p+1:], m.ColIdx[p:])
	copy(m.Val[p+1:], m.Val[p:])
	m.ColIdx[p] = j
	m.Val[p] = x
	for r := i + 1; r <= m.NRows; r++ {
		m.Ptr[r]++
	}
}

// Remove deletes element (i, j) if present, reporting whether it existed.
func (m *CSR[T]) Remove(i, j int) bool {
	p, ok := m.find(i, j)
	if !ok {
		return false
	}
	m.ColIdx = append(m.ColIdx[:p], m.ColIdx[p+1:]...)
	m.Val = append(m.Val[:p], m.Val[p+1:]...)
	for r := i + 1; r <= m.NRows; r++ {
		m.Ptr[r]--
	}
	return true
}

// BuildCSR constructs an nrows-by-ncols CSR matrix from coordinate triples.
// Duplicates are combined with dup; nil dup makes duplicates an error
// (ok == false), as are out-of-range indices. Inputs are not modified.
func BuildCSR[T any](nrows, ncols int, is, js []int, vals []T, dup func(T, T) T) (m *CSR[T], ok bool) {
	if len(is) != len(js) || len(is) != len(vals) {
		return nil, false
	}
	for k := range is {
		if is[k] < 0 || is[k] >= nrows || js[k] < 0 || js[k] >= ncols {
			return nil, false
		}
	}
	perm := make([]int, len(is))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		pa, pb := perm[a], perm[b]
		if is[pa] != is[pb] {
			return is[pa] < is[pb]
		}
		return js[pa] < js[pb]
	})
	m = NewCSR[T](nrows, ncols)
	m.ColIdx = make([]int, 0, len(is))
	m.Val = make([]T, 0, len(is))
	counts := make([]int, nrows)
	prevI, prevJ := -1, -1
	for _, p := range perm {
		i, j := is[p], js[p]
		if i == prevI && j == prevJ {
			if dup == nil {
				return nil, false
			}
			m.Val[len(m.Val)-1] = dup(m.Val[len(m.Val)-1], vals[p])
			continue
		}
		m.ColIdx = append(m.ColIdx, j)
		m.Val = append(m.Val, vals[p])
		counts[i]++
		prevI, prevJ = i, j
	}
	for i := 0; i < nrows; i++ {
		m.Ptr[i+1] = m.Ptr[i] + counts[i]
	}
	return m, true
}

// Tuples returns copies of the stored triples in row-major order.
func (m *CSR[T]) Tuples() (is, js []int, vals []T) {
	nnz := m.NNZ()
	is = make([]int, nnz)
	js = append([]int(nil), m.ColIdx[:nnz]...)
	vals = append([]T(nil), m.Val[:nnz]...)
	for i := 0; i < m.NRows; i++ {
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			is[p] = i
		}
	}
	return is, js, vals
}

// Transpose returns a new CSR holding mᵀ using a counting sort over columns.
func (m *CSR[T]) Transpose() *CSR[T] {
	t := NewCSR[T](m.NCols, m.NRows)
	nnz := m.NNZ()
	t.ColIdx = make([]int, nnz)
	t.Val = make([]T, nnz)
	// Count entries per column.
	for _, j := range m.ColIdx[:nnz] {
		t.Ptr[j+1]++
	}
	for j := 0; j < t.NRows; j++ {
		t.Ptr[j+1] += t.Ptr[j]
	}
	next := append([]int(nil), t.Ptr...)
	for i := 0; i < m.NRows; i++ {
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			j := m.ColIdx[p]
			q := next[j]
			next[j]++
			t.ColIdx[q] = i
			t.Val[q] = m.Val[p]
		}
	}
	return t
}

// Resize changes the dimensions to nrows-by-ncols, dropping elements that
// fall outside the new bounds.
func (m *CSR[T]) Resize(nrows, ncols int) {
	// Drop columns >= ncols row by row, compacting in place.
	if ncols < m.NCols {
		w := 0
		newPtr := make([]int, m.NRows+1)
		for i := 0; i < m.NRows; i++ {
			for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
				if m.ColIdx[p] < ncols {
					m.ColIdx[w] = m.ColIdx[p]
					m.Val[w] = m.Val[p]
					w++
				}
			}
			newPtr[i+1] = w
		}
		m.Ptr = newPtr
		m.ColIdx = m.ColIdx[:w]
		m.Val = m.Val[:w]
	}
	m.NCols = ncols
	if nrows < m.NRows {
		w := m.Ptr[nrows]
		m.Ptr = m.Ptr[:nrows+1]
		m.ColIdx = m.ColIdx[:w]
		m.Val = m.Val[:w]
	} else if nrows > m.NRows {
		last := m.Ptr[m.NRows]
		for r := m.NRows; r < nrows; r++ {
			m.Ptr = append(m.Ptr, last)
		}
	}
	m.NRows = nrows
}
