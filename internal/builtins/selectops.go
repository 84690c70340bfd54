package builtins

import (
	"graphblas/internal/core"
	"graphblas/internal/sparse"
)

// Predefined index-unary (select) operators, mirroring the GrB_IndexUnaryOp
// catalog of later spec revisions: structural predicates over positions and
// value predicates over thresholds, for use with SelectM/SelectV and
// ApplyIndexOp*. The four positional ones — Tril, Triu, DiagSel, OffDiag —
// are known to SelectM by position (core.PositionalSelect), which selects a
// matrix's entries without calling the predicate.

// Tril keeps entries on or below the k-th diagonal (j - i <= k).
func Tril[D any](k int) core.IndexUnaryOp[D, bool] {
	return core.PositionalSelect(sparse.BandTril, k, "tril", func(_ D, i, j int) bool { return j-i <= k })
}

// Triu keeps entries on or above the k-th diagonal (j - i >= k).
func Triu[D any](k int) core.IndexUnaryOp[D, bool] {
	return core.PositionalSelect(sparse.BandTriu, k, "triu", func(_ D, i, j int) bool { return j-i >= k })
}

// DiagSel keeps entries on the k-th diagonal.
func DiagSel[D any](k int) core.IndexUnaryOp[D, bool] {
	return core.PositionalSelect(sparse.BandDiag, k, "diag", func(_ D, i, j int) bool { return j-i == k })
}

// OffDiag keeps entries off the k-th diagonal.
func OffDiag[D any](k int) core.IndexUnaryOp[D, bool] {
	return core.PositionalSelect(sparse.BandOffDiag, k, "offdiag", func(_ D, i, j int) bool { return j-i != k })
}

// ValueEQ keeps entries equal to x.
func ValueEQ[D Number](x D) core.IndexUnaryOp[D, bool] {
	return core.IndexUnaryOp[D, bool]{Name: "valueeq", F: func(v D, _, _ int) bool { return v == x }}
}

// ValueNE keeps entries not equal to x.
func ValueNE[D Number](x D) core.IndexUnaryOp[D, bool] {
	return core.IndexUnaryOp[D, bool]{Name: "valuene", F: func(v D, _, _ int) bool { return v != x }}
}

// ValueLT keeps entries less than x.
func ValueLT[D Number](x D) core.IndexUnaryOp[D, bool] {
	return core.IndexUnaryOp[D, bool]{Name: "valuelt", F: func(v D, _, _ int) bool { return v < x }}
}

// ValueLE keeps entries at most x.
func ValueLE[D Number](x D) core.IndexUnaryOp[D, bool] {
	return core.IndexUnaryOp[D, bool]{Name: "valuele", F: func(v D, _, _ int) bool { return v <= x }}
}

// ValueGT keeps entries greater than x.
func ValueGT[D Number](x D) core.IndexUnaryOp[D, bool] {
	return core.IndexUnaryOp[D, bool]{Name: "valuegt", F: func(v D, _, _ int) bool { return v > x }}
}

// ValueGE keeps entries at least x.
func ValueGE[D Number](x D) core.IndexUnaryOp[D, bool] {
	return core.IndexUnaryOp[D, bool]{Name: "valuege", F: func(v D, _, _ int) bool { return v >= x }}
}

// RowIndex returns each entry's row index (for ApplyIndexOp).
func RowIndex[D any]() core.IndexUnaryOp[D, int64] {
	return core.IndexUnaryOp[D, int64]{Name: "rowindex", F: func(_ D, i, _ int) int64 { return int64(i) }}
}

// ColIndex returns each entry's column index.
func ColIndex[D any]() core.IndexUnaryOp[D, int64] {
	return core.IndexUnaryOp[D, int64]{Name: "colindex", F: func(_ D, _, j int) int64 { return int64(j) }}
}
