package format

import (
	"sort"
	"unsafe"

	"graphblas/internal/sparse"
)

// HyperDelta is the hypersparse (doubly-compressed) update overlay of the
// streaming engine: the same DCSR row structure as Hyper, extended with a
// per-entry tombstone bit so a batch can record deletions of main-store
// elements it has never seen. A stream of edge updates touches a vanishing
// fraction of a large graph's rows, which is exactly the regime DCSR is
// built for — the overlay costs O(touched rows + updates) regardless of the
// main matrix's row count.
//
// Instances are immutable once built: absorption and compaction always
// produce fresh structures, so a snapshot (or a pinned epoch) holding an old
// pointer stays valid while new deltas are published.
type HyperDelta[T any] struct {
	NRows, NCols int
	Rows         []int // touched row ids, strictly increasing
	Ptr          []int // len(Rows)+1 offsets into ColIdx/Val/Del
	ColIdx       []int // columns per touched row, strictly increasing
	Val          []T
	Del          []bool // tombstone: entry k deletes (row, ColIdx[k]) from the view
}

// Dims reports the logical dimensions the overlay was built against.
func (d *HyperDelta[T]) Dims() (int, int) { return d.NRows, d.NCols }

// NNZ reports the number of recorded updates (inserts plus tombstones).
func (d *HyperDelta[T]) NNZ() int {
	if d == nil {
		return 0
	}
	return d.Ptr[len(d.Rows)]
}

// ApproxBytes estimates the heap footprint of the overlay, the quantity the
// allocation governor charges and the merge policy reasons about.
func (d *HyperDelta[T]) ApproxBytes() int64 {
	if d == nil {
		return 0
	}
	var elem T
	n := int64(d.NNZ())
	return int64(len(d.Rows)+len(d.Ptr)+len(d.ColIdx))*int64(unsafe.Sizeof(int(0))) +
		n*int64(unsafe.Sizeof(elem)) + n
}

// RowAt returns the columns, values, and tombstone flags of the k-th touched
// row.
func (d *HyperDelta[T]) RowAt(k int) ([]int, []T, []bool) {
	lo, hi := d.Ptr[k], d.Ptr[k+1]
	return d.ColIdx[lo:hi], d.Val[lo:hi], d.Del[lo:hi]
}

// Lookup returns the update recorded at (i, j): ok reports whether the
// overlay stores one, del whether that update is a deletion.
func (d *HyperDelta[T]) Lookup(i, j int) (v T, del, ok bool) {
	var zero T
	if d == nil {
		return zero, false, false
	}
	k := sort.SearchInts(d.Rows, i)
	if k == len(d.Rows) || d.Rows[k] != i {
		return zero, false, false
	}
	idx, val, dl := d.RowAt(k)
	p := sort.SearchInts(idx, j)
	if p < len(idx) && idx[p] == j {
		return val[p], dl[p], true
	}
	return zero, false, false
}

// DeltaFromTuples builds an overlay from a program-ordered update stream:
// entries are grouped by (row, col) and the last update to a position wins.
// Tombstones (Del tuples) are kept: they must survive until the overlay
// merges into a main store whose elements they may delete. A matrix's
// pending-tuple flush is such an overlay merged straight into its store
// (MergeDeltaCSR). The input slice is not modified.
func DeltaFromTuples[T any](nrows, ncols int, ts []sparse.Tuple[T]) *HyperDelta[T] {
	d := &HyperDelta[T]{NRows: nrows, NCols: ncols}
	if len(ts) == 0 {
		d.Ptr = []int{0}
		return d
	}
	perm := make([]int, len(ts))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ta, tb := ts[perm[a]], ts[perm[b]]
		if ta.I != tb.I {
			return ta.I < tb.I
		}
		return ta.J < tb.J
	})
	d.Ptr = []int{0}
	k := 0
	for k < len(perm) {
		row := ts[perm[k]].I
		d.Rows = append(d.Rows, row)
		for k < len(perm) && ts[perm[k]].I == row {
			col := ts[perm[k]].J
			last := ts[perm[k]]
			for k < len(perm) && ts[perm[k]].I == row && ts[perm[k]].J == col {
				last = ts[perm[k]]
				k++
			}
			d.ColIdx = append(d.ColIdx, col)
			d.Val = append(d.Val, last.V)
			d.Del = append(d.Del, last.Del)
		}
		d.Ptr = append(d.Ptr, len(d.ColIdx))
	}
	return d
}

// MergeDeltas layers add over old: where both record an update to the same
// position the one from add wins (add is later in program order), and
// tombstones from either side are retained. Returns a fresh overlay; the
// inputs are not modified.
func MergeDeltas[T any](old, add *HyperDelta[T]) *HyperDelta[T] {
	if old == nil || old.NNZ() == 0 {
		return add
	}
	if add == nil || add.NNZ() == 0 {
		return old
	}
	out := &HyperDelta[T]{NRows: add.NRows, NCols: add.NCols, Ptr: []int{0}}
	emitRow := func(row int, idx []int, val []T, del []bool) {
		out.Rows = append(out.Rows, row)
		out.ColIdx = append(out.ColIdx, idx...)
		out.Val = append(out.Val, val...)
		out.Del = append(out.Del, del...)
		out.Ptr = append(out.Ptr, len(out.ColIdx))
	}
	a, b := 0, 0
	for a < len(old.Rows) || b < len(add.Rows) {
		switch {
		case b == len(add.Rows) || (a < len(old.Rows) && old.Rows[a] < add.Rows[b]):
			i, v, dl := old.RowAt(a)
			emitRow(old.Rows[a], i, v, dl)
			a++
		case a == len(old.Rows) || add.Rows[b] < old.Rows[a]:
			i, v, dl := add.RowAt(b)
			emitRow(add.Rows[b], i, v, dl)
			b++
		default: // same row in both: column-wise merge, add wins
			row := old.Rows[a]
			oi, ov, od := old.RowAt(a)
			ai, av, ad := add.RowAt(b)
			out.Rows = append(out.Rows, row)
			p, q := 0, 0
			for p < len(oi) || q < len(ai) {
				switch {
				case q == len(ai) || (p < len(oi) && oi[p] < ai[q]):
					out.ColIdx = append(out.ColIdx, oi[p])
					out.Val = append(out.Val, ov[p])
					out.Del = append(out.Del, od[p])
					p++
				case p == len(oi) || ai[q] < oi[p]:
					out.ColIdx = append(out.ColIdx, ai[q])
					out.Val = append(out.Val, av[q])
					out.Del = append(out.Del, ad[q])
					q++
				default:
					out.ColIdx = append(out.ColIdx, ai[q])
					out.Val = append(out.Val, av[q])
					out.Del = append(out.Del, ad[q])
					p++
					q++
				}
			}
			out.Ptr = append(out.Ptr, len(out.ColIdx))
			a++
			b++
		}
	}
	return out
}

// MergeDeltaCSR compacts the overlay into a main store: a row-wise
// two-pointer merge where overlay inserts replace main elements and
// tombstones drop them. Updates outside the main store's current dimensions
// are discarded — a Resize enqueued between absorption and compaction may
// legitimately have shrunk the matrix. The rows are written through
// sparse.EmitCSR, split by the main store's entries: each chunk copies the
// runs of rows the overlay does not touch as they are and merges the ones it
// does. Returns fresh storage; neither input is modified.
func MergeDeltaCSR[T any](main *sparse.CSR[T], d *HyperDelta[T]) *sparse.CSR[T] {
	if d == nil || d.NNZ() == 0 {
		return main
	}
	return sparse.EmitCSR(main.NRows, main.NCols, main.Ptr, func(out *sparse.Rows[T], lo, hi int) {
		k, end := sort.SearchInts(d.Rows, lo), sort.SearchInts(d.Rows, hi)
		out.Reserve(main.Ptr[hi] - main.Ptr[lo] + d.Ptr[end] - d.Ptr[k])
		next := lo // the first row not written yet
		for ; k < end; k++ {
			i := d.Rows[k]
			out.Copy(main, next, i)
			next = i + 1
			mi, mv := main.Row(i)
			di, dv, dd := d.RowAt(k)
			p, q := 0, 0
			for p < len(mi) || q < len(di) {
				switch {
				case q == len(di) || (p < len(mi) && mi[p] < di[q]):
					out.Idx, out.Val = append(out.Idx, mi[p]), append(out.Val, mv[p])
					p++
				case p == len(mi) || di[q] < mi[p]:
					if !dd[q] && di[q] < main.NCols {
						out.Idx, out.Val = append(out.Idx, di[q]), append(out.Val, dv[q])
					}
					q++
				default:
					if !dd[q] {
						out.Idx, out.Val = append(out.Idx, di[q]), append(out.Val, dv[q])
					}
					p++
					q++
				}
			}
			out.End(i)
		}
		out.Copy(main, next, hi)
	})
}
