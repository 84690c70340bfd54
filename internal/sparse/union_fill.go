package sparse

import "graphblas/internal/pool"

// UnionFill kernels implement the GxB_eWiseUnion-style merge: op applies on
// the union of structures, with absent operands replaced by caller-supplied
// fill values (alpha for missing a-entries, beta for missing b-entries).
// Unlike the plain union, this admits the full three-domain operator.

// unionFillRow merges one row/vector pair with fills, appending to its
// output slices.
func unionFillRow[DA, DB, DC any](aIdx []int, aVal []DA, bIdx []int, bVal []DB,
	op func(DA, DB) DC, alpha DA, beta DB, outIdx []int, outVal []DC) ([]int, []DC) {
	pa, pb := 0, 0
	for pa < len(aIdx) || pb < len(bIdx) {
		switch {
		case pb >= len(bIdx) || (pa < len(aIdx) && aIdx[pa] < bIdx[pb]):
			outIdx = append(outIdx, aIdx[pa])
			outVal = append(outVal, op(aVal[pa], beta))
			pa++
		case pa >= len(aIdx) || bIdx[pb] < aIdx[pa]:
			outIdx = append(outIdx, bIdx[pb])
			outVal = append(outVal, op(alpha, bVal[pb]))
			pb++
		default:
			outIdx = append(outIdx, aIdx[pa])
			outVal = append(outVal, op(aVal[pa], bVal[pb]))
			pa++
			pb++
		}
	}
	return outIdx, outVal
}

// VecUnionFill computes the filled union of two vectors.
func VecUnionFill[DA, DB, DC any](a *Vec[DA], b *Vec[DB], op func(DA, DB) DC, alpha DA, beta DB) *Vec[DC] {
	m := len(a.Idx) + len(b.Idx)
	idx, val := unionFillRow(a.Idx, a.Val, b.Idx, b.Val, op, alpha, beta, pool.RawVals[int](m)[:0], pool.RawVals[DC](m)[:0])
	return pooledVec(a.N, idx, val)
}

// UnionFillCSR computes the filled union of two matrices row-parallel.
func UnionFillCSR[DA, DB, DC any](a *CSR[DA], b *CSR[DB], op func(DA, DB) DC, alpha DA, beta DB) *CSR[DC] {
	return EmitCSR(a.NRows, a.NCols, a.Ptr, func(out *Rows[DC], lo, hi int) {
		out.Reserve(a.Ptr[hi] - a.Ptr[lo] + b.Ptr[hi] - b.Ptr[lo])
		for i := lo; i < hi; i++ {
			aIdx, aVal := a.Row(i)
			bIdx, bVal := b.Row(i)
			out.Idx, out.Val = unionFillRow(aIdx, aVal, bIdx, bVal, op, alpha, beta, out.Idx, out.Val)
			out.End(i)
		}
	})
}
