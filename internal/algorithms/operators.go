package algorithms

import "graphblas/internal/builtins"

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
)
