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

// ApplyVecTuples merges buffered updates into v in program order: the last
// update to a position wins, and a Del deletes it; the J field of each tuple
// is ignored. Returns fresh storage; v is not modified. (A matrix's updates
// merge as a format.HyperDelta.)
func ApplyVecTuples[D any](v *Vec[D], ts []Tuple[D]) *Vec[D] {
	if len(ts) == 0 {
		return v
	}
	perm := make([]int, len(ts))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return ts[perm[a]].I < ts[perm[b]].I })
	// The last update to each position, at ascending positions.
	var targets []int
	var last []Tuple[D]
	for k := 0; k < len(perm); {
		t := ts[perm[k]]
		for k < len(perm) && ts[perm[k]].I == t.I {
			t = ts[perm[k]]
			k++
		}
		targets, last = append(targets, t.I), append(last, t)
	}
	return assignRuns(v, targets, func(j int) (D, bool) { return last[j].V, !last[j].Del }, nil)
}
