package algorithms

import (
	"graphblas/internal/builtins"
	"graphblas/internal/core"
)

// Jaccard computes the Jaccard similarity of every *adjacent* pair of
// vertices in a symmetric simple graph:
//
//	J(i,j) = |N(i) ∩ N(j)| / |N(i) ∪ N(j)|
//	       = common(i,j) / (deg(i) + deg(j) - common(i,j))
//
// The common-neighbor counts come from one masked multiply C⟨A⟩ = A +.× A
// (the Figure 2 idiom keeps the result confined to the edge set instead of
// materializing the dense similarity matrix); degrees come from a row
// reduce; the final combination is element-wise arithmetic. Adjacent pairs
// with no common neighbors get no stored entry (their similarity would be
// 2/(deg(i)+deg(j)) ≠ 0 only through the shared edge itself, which the
// standard neighborhood definition excludes).
func Jaccard(a *core.Matrix[bool]) (*core.Matrix[float64], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	ones, err := core.NewMatrix[float64](n, n)
	if err != nil {
		return nil, err
	}
	if err := core.ApplyM(ones, core.NoMask, core.NoAccum[float64](), builtins.CastBoolTo[float64](), a, nil); err != nil {
		return nil, err
	}
	// common⟨A⟩ = A +.× A.
	common, err := core.NewMatrix[float64](n, n)
	if err != nil {
		return nil, err
	}
	if err := core.MxM(common, a, core.NoAccum[float64](), builtins.PlusTimes[float64](), ones, ones, core.Desc().ReplaceOutput()); err != nil {
		return nil, err
	}
	// deg(i) + deg(j) on the stored pairs: build D = diag(deg), then
	// degSum⟨common⟩ = D +.× |A| + |A| +.× D … simpler with an index-aware
	// apply: each stored (i, j) looks up deg[i] + deg[j] captured densely.
	deg, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	if err := core.ReduceMatrixToVector(deg, core.NoMaskV, core.NoAccum[float64](), builtins.PlusMonoid[float64](), ones, nil); err != nil {
		return nil, err
	}
	degIdx, degVal, err := deg.ExtractTuples()
	if err != nil {
		return nil, err
	}
	// The extract forced the sequence: freeing ones adds no flush.
	if err := freeAll(ones, deg); err != nil {
		return nil, err
	}
	dense := make([]float64, n)
	for k := range degIdx {
		dense[degIdx[k]] = degVal[k]
	}
	jacc := core.IndexUnaryOp[float64, float64]{Name: "jaccard", F: func(c float64, i, j int) float64 {
		return c / (dense[i] + dense[j] - c)
	}}
	out, err := core.NewMatrix[float64](n, n)
	if err != nil {
		return nil, err
	}
	if err := core.ApplyIndexOpM(out, core.NoMask, core.NoAccum[float64](), jacc, common, nil); err != nil {
		return nil, err
	}
	// Free completes the sequence, out's apply included, and gives common's
	// store back to the pool.
	if err := common.Free(); err != nil {
		return nil, err
	}
	return out, nil
}
