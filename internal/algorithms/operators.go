package algorithms

import (
	"graphblas/internal/builtins"
	"graphblas/internal/core"
	"graphblas/internal/setalg"
)

// The predefined operators the algorithms use in place of hand-written
// literals, built once: a generic constructor allocates its closure on every
// call, and these serve every pass of algorithms that run per request.
var (
	firstLabel = builtins.FirstOf[int64, bool]()   // a vertex's label or id, carried across an edge
	firstScore = builtins.FirstOf[float64, bool]() // a vertex's score, carried across an edge
	firstInt64 = builtins.First[int64]()
	pairCount  = builtins.Pair[bool, bool, int64]()         // 1 per shared edge
	pairDegree = builtins.Pair[float64, float64, float64]() // 1 per stored entry
	absDiff    = builtins.AbsDiff[float64]()
	sumInt64   = builtins.PlusMonoid[int64]()
	setSize    = core.UnaryOp[setalg.Set, int64]{Name: "card", F: func(s setalg.Set) int64 { return int64(s.Len()) }} // a label set's size

	// strictLower keeps the entries with j < i, selected by position.
	strictLower = builtins.Tril[bool](-1)
	// relaxes(r, d) says whether d ⊕min r differs from d (≠): SSSP's test
	// of a changed distance. The predefined min keeps d unless r < d, so
	// the result differs exactly when r < d, or when d is NaN, which
	// differs from itself.
	relaxes = core.BinaryOp[float64, float64, bool]{Name: "relaxes", F: func(r, d float64) bool { return r < d || d != d }}
)

// freeAll frees an algorithm's work objects before it returns, so their
// stores — vectors' and matrices' — go back to the pool instead of to the
// collector. Free forces pending work: call it after the last forced read,
// where it adds no flush. A nil object is skipped.
func freeAll(vs ...interface{ Free() error }) error {
	for _, v := range vs {
		if err := v.Free(); err != nil {
			return err
		}
	}
	return nil
}
