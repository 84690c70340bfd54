package sparse

import "sort"

// Pending-tuple support: SetElement/RemoveElement calls buffer as tuples
// (O(1) amortized each) and merge into the compressed storage in one pass
// when the collection is next read — the classic "pending tuples" design of
// production GraphBLAS implementations, where interleaved single-element
// updates would otherwise cost O(nnz) apiece.

// Tuple is one buffered single-element update. Del marks a removal.
type Tuple[D any] struct {
	I, J int
	V    D
	Del  bool
}

// ApplyTuples merges buffered updates into c in program order (the last
// update to a position wins, and a Del deletes it). Returns fresh storage;
// c is not modified.
func ApplyTuples[D any](c *CSR[D], ts []Tuple[D]) *CSR[D] {
	if len(ts) == 0 {
		return c
	}
	// Stable order by (row, col); sequence order breaks ties so the last
	// update survives the dedup below.
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
	ri, rv := rowsView(c)
	// Walk groups of equal (i, j), keeping the last; emit one mergeAssign
	// per affected row.
	k := 0
	for k < len(perm) {
		row := ts[perm[k]].I
		var es []assignEntry[D]
		for k < len(perm) && ts[perm[k]].I == row {
			col := ts[perm[k]].J
			last := ts[perm[k]]
			for k < len(perm) && ts[perm[k]].I == row && ts[perm[k]].J == col {
				last = ts[perm[k]]
				k++
			}
			es = append(es, assignEntry[D]{target: col, val: last.V, has: !last.Del})
		}
		ri[row], rv[row] = mergeAssign(ri[row], rv[row], es, nil)
	}
	return assemble(c.NRows, c.NCols, ri, rv)
}

// ApplyVecTuples is the vector form of ApplyTuples; the J field of each
// tuple is ignored.
func ApplyVecTuples[D any](v *Vec[D], ts []Tuple[D]) *Vec[D] {
	if len(ts) == 0 {
		return v
	}
	perm := make([]int, len(ts))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return ts[perm[a]].I < ts[perm[b]].I })
	var es []assignEntry[D]
	k := 0
	for k < len(perm) {
		i := ts[perm[k]].I
		last := ts[perm[k]]
		for k < len(perm) && ts[perm[k]].I == i {
			last = ts[perm[k]]
			k++
		}
		es = append(es, assignEntry[D]{target: i, val: last.V, has: !last.Del})
	}
	idx, val := mergeAssignVec(v.Idx, v.Val, es, nil)
	return &Vec[D]{N: v.N, Idx: idx, Val: val}
}
