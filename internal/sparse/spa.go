package sparse

// SPA is a sparse accumulator: a dense value array with stamp-based presence
// marks, so it can be reused across rows without O(n) clearing. It is the
// workhorse of the Gustavson SpGEMM and push-style SpMV kernels.
type SPA[T any] struct {
	val   []T
	stamp []int
	cur   int
	nz    []int // indices touched in the current generation, unsorted
}

// NewSPA returns a sparse accumulator over index space [0, n). The nonzero
// list is pre-sized to n up front — the accumulator is already O(n) in val
// and stamp, and a full-capacity nz list keeps Accumulate free of append
// growth on the pinned-allocation kernel paths.
func NewSPA[T any](n int) *SPA[T] {
	return &SPA[T]{val: make([]T, n), stamp: make([]int, n), cur: 0, nz: make([]int, 0, n)}
}

// Reset begins a new accumulation generation; prior contents vanish in O(1)
// (amortized; a full clear happens only on stamp wraparound, which cannot
// occur in practice with int stamps).
func (s *SPA[T]) Reset() {
	s.cur++
	s.nz = s.nz[:0]
}

// Accumulate combines x into position i with add, or stores x if i is empty.
func (s *SPA[T]) Accumulate(i int, x T, add func(T, T) T) {
	if s.stamp[i] == s.cur {
		s.val[i] = add(s.val[i], x)
		return
	}
	s.stamp[i] = s.cur
	s.val[i] = x
	s.nz = append(s.nz, i)
}

// Store overwrites position i with x regardless of prior presence.
func (s *SPA[T]) Store(i int, x T) {
	if s.stamp[i] != s.cur {
		s.stamp[i] = s.cur
		s.nz = append(s.nz, i)
	}
	s.val[i] = x
}

// Has reports whether position i holds a value in the current generation.
func (s *SPA[T]) Has(i int) bool { return s.stamp[i] == s.cur }

// Get returns the value at position i (meaningful only if Has(i)).
func (s *SPA[T]) Get(i int) T { return s.val[i] }

// Len reports how many positions hold values in the current generation.
func (s *SPA[T]) Len() int { return len(s.nz) }

// Gather appends the current generation's (index, value) pairs in sorted
// index order to idx and val and returns the extended slices.
func (s *SPA[T]) Gather(idx []int, val []T) ([]int, []T) {
	insertionSortInts(s.nz)
	for _, i := range s.nz {
		idx = append(idx, i)
		val = append(val, s.val[i])
	}
	return idx, val
}

// insertionSortInts sorts small-to-medium int slices; SPA nonzero lists are
// typically short per row, and for long lists we fall back to a quicksort.
func insertionSortInts(a []int) {
	if len(a) > 48 {
		quickSortInts(a)
		return
	}
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

func quickSortInts(a []int) {
	for len(a) > 48 {
		// median-of-three pivot
		m := len(a) / 2
		if a[0] > a[m] {
			a[0], a[m] = a[m], a[0]
		}
		if a[0] > a[len(a)-1] {
			a[0], a[len(a)-1] = a[len(a)-1], a[0]
		}
		if a[m] > a[len(a)-1] {
			a[m], a[len(a)-1] = a[len(a)-1], a[m]
		}
		pivot := a[m]
		i, j := 0, len(a)-1
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j < len(a)-i {
			quickSortInts(a[:j+1])
			a = a[i:]
		} else {
			quickSortInts(a[i:])
			a = a[:j+1]
		}
	}
	insertionSortSmall(a)
}

func insertionSortSmall(a []int) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// BitSPA is a presence-only sparse accumulator used for boolean-structure
// kernels (e.g. masked pruning) where values are irrelevant. Its stamp
// array is pool scratch: pushCore, its one user, draws it zeroed and puts it
// back when the kernel returns.
type BitSPA struct {
	stamp []int
	cur   int
}

// Reset begins a new generation.
func (s *BitSPA) Reset() { s.cur++ }

// Mark records presence of index i.
func (s *BitSPA) Mark(i int) { s.stamp[i] = s.cur }

// Has reports presence of index i in the current generation.
func (s *BitSPA) Has(i int) bool { return s.stamp[i] == s.cur }

// MarkAll records presence for every index in idx.
func (s *BitSPA) MarkAll(idx []int) {
	for _, i := range idx {
		s.stamp[i] = s.cur
	}
}
