package serve

import (
	"cmp"
	"context"
	"slices"
	"sort"

	"graphblas/internal/builtins"
	"graphblas/internal/core"
)

// The query routines are written once against the store's snapshot — shard
// counts differ only in how the snapshot answers VxM — and thread the request
// context through every flush: each frontier expansion / power-iteration
// sweep ends in WaitContext(ctx), so an expired deadline stops the DAG
// scheduler from dispatching further kernels instead of letting the request
// burn engine time it can no longer use. Cancellation surfaces as a
// Canceled-class error, which the retry layer classifies as transient.

// KHop returns every vertex reachable from src within at most k hops
// (including src), ascending. It is the BFS frontier loop of the paper's
// Figure 3 with a hop budget: frontier ← frontierᵀA per sweep, reached mass
// accumulated across sweeps.
func (v View) KHop(ctx context.Context, src, k int) ([]int, error) {
	n := v.g.N
	frontier, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	if err := frontier.SetElement(1, src); err != nil {
		return nil, err
	}
	// next is overwritten every hop, then becomes the frontier: the two
	// handles trade places instead of a new one per hop.
	next, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	visited, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	if err := visited.SetElement(1, src); err != nil {
		return nil, err
	}
	one := builtins.One[float64]()
	first := builtins.First[float64]()
	reached := 1
	for hop := 0; hop < k; hop++ {
		// Non-opaque reads inside the loop force flushes with no context of
		// their own, so the deadline is also checked explicitly per hop.
		if ctx != nil && ctx.Err() != nil {
			return nil, errCanceledBefore(ctx)
		}
		if err := v.g.VxM(ctx, next, frontier); err != nil {
			return nil, err
		}
		// Clamp accumulated path counts back to presence so weights and path
		// multiplicity never overflow the structural question being asked.
		if err := core.ApplyV(next, core.NoMaskV, core.NoAccum[float64](), one, next, core.Desc().ReplaceOutput()); err != nil {
			return nil, err
		}
		if err := core.EWiseAddV(visited, core.NoMaskV, core.NoAccum[float64](), first, visited, next, nil); err != nil {
			return nil, err
		}
		if err := core.WaitContext(ctx); err != nil {
			return nil, err
		}
		frontier, next = next, frontier
		// A frontier inside visited only re-expands into visited, so a hop
		// that reaches nothing new is closure: the answer for every larger k.
		nv, err := visited.NVals()
		if err != nil {
			return nil, err
		}
		if nv == reached {
			break
		}
		reached = nv
	}
	idx, _, err := visited.ExtractTuples()
	if err != nil {
		return nil, err
	}
	if err := free(frontier, next, visited); err != nil {
		return nil, err
	}
	sort.Ints(idx)
	return idx, nil
}

// free hands a query's work vectors back once its answer is out of them:
// their storage goes to the next query instead of to the collector.
func free(vs ...*core.Vector[float64]) error {
	for _, v := range vs {
		if err := v.Free(); err != nil {
			return err
		}
	}
	return nil
}

// Ranked is one entry of a top-k ranking.
type Ranked struct {
	Vertex int     `json:"vertex"`
	Score  float64 `json:"score"`
}

// absDiff is PPR's |x − y|, built once: the constructor allocates its
// closure on every call.
var absDiff = builtins.AbsDiff[float64]()

// PPRTopK runs personalized PageRank with restart vertex src and returns the
// k highest-ranked vertices. maxIter bounds the power iteration; the
// degradation ladder passes a reduced bound under load, trading rank
// precision for latency. The achieved sweep count is returned so responses
// can report how degraded they are.
func (v View) PPRTopK(ctx context.Context, src, k int, damping, tol float64, maxIter int) ([]Ranked, int, error) {
	n := v.g.N
	outdeg, err := v.g.OutDegrees(ctx)
	if err != nil {
		return nil, 0, err
	}

	rank, err := core.NewVector[float64](n)
	if err != nil {
		return nil, 0, err
	}
	if err := rank.SetElement(1, src); err != nil {
		return nil, 0, err
	}

	plusMonoid := builtins.PlusMonoid[float64]()
	div := builtins.Div[float64]()
	first := builtins.First[float64]()
	plus := builtins.Plus[float64]()
	damp := core.UnaryOp[float64, float64]{Name: "damp", F: func(x float64) float64 { return damping * x }}

	// The sweep's work vectors, each fully overwritten every sweep; next
	// trades places with rank at the end of one.
	var work [4]*core.Vector[float64]
	for i := range work {
		if work[i], err = core.NewVector[float64](n); err != nil {
			return nil, 0, err
		}
	}
	share, withEdges, next, diffV := work[0], work[1], work[2], work[3]
	iters := 0
	for ; iters < maxIter; iters++ {
		// The scalar reductions below force flushes without a context, so
		// the deadline is also checked explicitly at each sweep boundary.
		if ctx != nil && ctx.Err() != nil {
			return nil, iters, errCanceledBefore(ctx)
		}
		// share = rank ./ outdeg; intersection drops dangling vertices.
		if err := core.EWiseMultV(share, core.NoMaskV, core.NoAccum[float64](), div, rank, outdeg, core.Desc().ReplaceOutput()); err != nil {
			return nil, 0, err
		}
		// Dangling and restart mass both return to src in the personalized
		// formulation: next = (1-d)·e_src + d·dangling·e_src + d·shareᵀA.
		total, err := core.ReduceVectorToScalar(0, core.NoAccum[float64](), plusMonoid, rank)
		if err != nil {
			return nil, 0, err
		}
		if err := core.EWiseMultV(withEdges, core.NoMaskV, core.NoAccum[float64](), first, rank, outdeg, nil); err != nil {
			return nil, 0, err
		}
		linked, err := core.ReduceVectorToScalar(0, core.NoAccum[float64](), plusMonoid, withEdges)
		if err != nil {
			return nil, 0, err
		}
		dangling := total - linked

		if err := v.g.VxM(ctx, next, share); err != nil {
			return nil, 0, err
		}
		if err := core.ApplyV(next, core.NoMaskV, core.NoAccum[float64](), damp, next, nil); err != nil {
			return nil, 0, err
		}
		restart := (1 - damping) + damping*dangling
		if err := core.AssignVectorScalar(next, core.NoMaskV, plus, restart, []int{src}, nil); err != nil {
			return nil, 0, err
		}
		if err := core.EWiseAddV(diffV, core.NoMaskV, core.NoAccum[float64](), absDiff, next, rank, nil); err != nil {
			return nil, 0, err
		}
		diff, err := core.ReduceVectorToScalar(0, core.NoAccum[float64](), plusMonoid, diffV)
		if err != nil {
			return nil, 0, err
		}
		rank, next = next, rank
		// One flush checkpoint per sweep: the deadline is consulted between
		// sweeps, never mid-kernel.
		if err := core.WaitContext(ctx); err != nil {
			return nil, 0, err
		}
		if diff < tol {
			iters++
			break
		}
	}

	idx, vals, err := rank.ExtractTuples()
	if err != nil {
		return nil, 0, err
	}
	if err := free(rank, share, withEdges, next, diffV); err != nil {
		return nil, 0, err
	}
	ranked := make([]Ranked, len(idx))
	for i := range idx {
		ranked[i] = Ranked{Vertex: idx[i], Score: vals[i]}
	}
	return topK(ranked, k), iters, nil
}

// rankedBefore orders a ranking: score descending, then vertex ascending.
// Vertices are distinct, so the order is total and every sort of a ranking
// gives the same list.
func rankedBefore(a, b Ranked) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return cmp.Compare(a.Vertex, b.Vertex)
}

// topK returns the first k entries of ranked in rankedBefore's order, all of
// them when k <= 0 or k >= len(ranked), reordering ranked in place. A bounded
// k is selected with a heap of k entries whose root is the last of them, so
// only the k winners are sorted.
func topK(ranked []Ranked, k int) []Ranked {
	if k <= 0 || k >= len(ranked) {
		slices.SortFunc(ranked, rankedBefore)
		return ranked
	}
	h := ranked[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for _, r := range ranked[k:] {
		if rankedBefore(r, h[0]) < 0 {
			h[0] = r
			siftDown(h, 0)
		}
	}
	slices.SortFunc(h, rankedBefore)
	return h
}

// siftDown restores the heap below i in h, a heap whose every parent comes
// after its children in rankedBefore's order.
func siftDown(h []Ranked, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && rankedBefore(h[c+1], h[c]) > 0 {
			c++
		}
		if rankedBefore(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// GraphStats summarizes the structure of one pinned view.
type GraphStats struct {
	Nodes      int     `json:"nodes"`
	Edges      int     `json:"edges"`
	Triangles  int64   `json:"triangles"`
	Clustering float64 `json:"clustering"`
}

// Stats reports the view's triangle and clustering statistics on its
// symmetrized pattern. The snapshot derives them once (TriangleStats), so
// only the first call on a snapshot runs the triangle kernel — cancellation
// is coarse there (checked before and at the closing flush), matching the C
// API's rule that a method already executing runs to completion.
func (v View) Stats(ctx context.Context) (GraphStats, error) {
	st := GraphStats{Nodes: v.g.N, Edges: v.g.NVals}
	if ctx != nil && ctx.Err() != nil {
		return st, errCanceledBefore(ctx)
	}
	var err error
	st.Triangles, st.Clustering, err = v.g.TriangleStats(ctx)
	return st, err
}

// Degree reports vertex's out-degree at the pinned epoch, read off the
// view's cached out-degree vector.
func (v View) Degree(ctx context.Context, vertex int) (int, error) {
	if ctx != nil && ctx.Err() != nil {
		return 0, errCanceledBefore(ctx)
	}
	outdeg, err := v.g.OutDegrees(ctx)
	if err != nil {
		return 0, err
	}
	d, err := outdeg.ExtractElement(vertex)
	if core.InfoOf(err) == core.NoValue {
		return 0, nil
	}
	return int(d), err
}

// errCanceledBefore wraps a pre-execution context error in the engine's
// Canceled class so the retry layer treats it uniformly.
func errCanceledBefore(ctx context.Context) error {
	return &core.Error{Info: core.Canceled, Op: "serve.query", Msg: ctx.Err().Error()}
}
