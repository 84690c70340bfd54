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
	neFloat64  = builtins.Ne[float64]()
	anyTrue    = builtins.LOrMonoid()
	sumInt64   = builtins.PlusMonoid[int64]()
	setSize    = core.UnaryOp[setalg.Set, int64]{Name: "card", F: func(s setalg.Set) int64 { return int64(s.Len()) }} // a label set's size
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
