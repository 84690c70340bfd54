package sparse

import (
	"graphblas/internal/parallel"
	"graphblas/internal/pool"
)

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
	idx, val := unionFillRow(a.Idx, a.Val, b.Idx, b.Val, op, alpha, beta,
		make([]int, 0, len(a.Idx)+len(b.Idx)), pool.Vals[DC](len(a.Idx) + len(b.Idx))[:0])
	return &Vec[DC]{N: a.N, Idx: idx, Val: val}
}

// UnionFillCSR computes the filled union of two matrices row-parallel.
func UnionFillCSR[DA, DB, DC any](a *CSR[DA], b *CSR[DB], op func(DA, DB) DC, alpha DA, beta DB) *CSR[DC] {
	ri := make([][]int, a.NRows)
	rv := make([][]DC, a.NRows)
	parallel.ForWeighted(a.NRows, a.Ptr, func(lo, hi int) {
		var idxArena []int
		var valArena []DC
		offs := make([]int, 0, hi-lo+1)
		offs = append(offs, 0)
		for i := lo; i < hi; i++ {
			aIdx, aVal := a.Row(i)
			bIdx, bVal := b.Row(i)
			idxArena, valArena = unionFillRow(aIdx, aVal, bIdx, bVal, op, alpha, beta, idxArena, valArena)
			offs = append(offs, len(idxArena))
		}
		for i := lo; i < hi; i++ {
			k := i - lo
			ri[i] = idxArena[offs[k]:offs[k+1]]
			rv[i] = valArena[offs[k]:offs[k+1]]
		}
	})
	return assemble(a.NRows, a.NCols, ri, rv)
}
