package serve

import (
	"cmp"
	"context"
	"slices"

	"graphblas/internal/algorithms"
	"graphblas/internal/builtins"
	"graphblas/internal/core"
)

// The query routines are written once against the store's snapshot — shard
// counts differ only in how the snapshot answers VxM — and thread the request
// context through the flush that runs each product: a frontier expansion
// ends in WaitContext(ctx), and a power-iteration sweep
// (algorithms.PowerIterate) runs its product under WaitContext(ctx) before
// its first reduce. An expired deadline stops the DAG scheduler from
// dispatching further kernels instead of letting the request burn engine
// time it can no longer use. Cancellation surfaces as a Canceled-class
// error, which the retry layer classifies as transient.

// KHop returns every vertex reachable from src within at most k hops
// (including src), ascending: the order of the visited vector's tuples. It is the BFS frontier loop of the paper's
// Figure 3 with a hop budget: frontier ← frontierᵀA per sweep, reached mass
// accumulated across sweeps.
func (v View) KHop(ctx context.Context, src, k int) (_ []int, err error) {
	n := v.g.N
	// next is overwritten every hop, then becomes the frontier: the two
	// handles trade places instead of a new one per hop. Every return frees
	// the three, so a failed or canceled query leaves no store behind.
	var frontier, next, visited *core.Vector[float64]
	defer func() { err = cmp.Or(err, core.FreeAll(frontier, next, visited)) }()
	if frontier, err = core.NewVector[float64](n); err != nil {
		return nil, err
	}
	if err := frontier.SetElement(1, src); err != nil {
		return nil, err
	}
	if next, err = core.NewVector[float64](n); err != nil {
		return nil, err
	}
	if visited, err = core.NewVector[float64](n); err != nil {
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
	return idx, nil
}

// Ranked is one entry of a top-k ranking.
type Ranked struct {
	Vertex int     `json:"vertex"`
	Score  float64 `json:"score"`
}

// PPRTopK runs personalized PageRank — PageRank's PowerIterate over the
// snapshot's VxM, teleporting to src — and returns the k highest-ranked
// vertices. maxIter bounds the power iteration; the degradation ladder
// passes a reduced bound under load, trading rank precision for latency.
// The achieved sweep count is returned so responses can report how degraded
// they are.
func (v View) PPRTopK(ctx context.Context, src, k int, damping, tol float64, maxIter int) (_ []Ranked, _ int, err error) {
	outdeg, err := v.g.OutDegrees(ctx)
	if err != nil {
		return nil, 0, err
	}
	rank, err := core.NewVector[float64](v.g.N)
	if err != nil {
		return nil, 0, err
	}
	if err := rank.SetElement(1, src); err != nil {
		return nil, 0, cmp.Or(err, core.FreeAll(rank))
	}
	product := func(out, in *core.Vector[float64]) error { return v.g.VxM(ctx, out, in) }
	// PowerIterate takes rank over, and frees it when it fails.
	rank, iters, err := algorithms.PowerIterate(ctx, rank, outdeg, []int{src}, product, damping, tol, maxIter)
	if err != nil {
		return nil, 0, err
	}
	defer func() { err = cmp.Or(err, core.FreeAll(rank)) }()
	// The entries stream from the rank vector's store into the selection,
	// so only the k winners are ever copied out of it. The iterator hands
	// the store back at its end, and freeing rank then recycles it.
	n, err := rank.NVals()
	if err != nil {
		return nil, 0, err
	}
	it, err := core.VectorIterate(rank)
	if err != nil {
		return nil, 0, err
	}
	top := newTopK(k, n)
	for i, x, ok := it.Next(); ok; i, x, ok = it.Next() {
		top.offer(Ranked{Vertex: i, Score: x})
	}
	return top.ranking(), iters, nil
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

// topK selects the first k entries of a ranking in rankedBefore's order
// as they are offered, all of them when k <= 0. A bounded k is selected
// with a heap of k entries whose root is the last of them, so only the k
// winners are held and sorted.
type topK struct {
	k int
	h []Ranked
}

// newTopK starts a selection of k entries from n offered ones.
func newTopK(k, n int) topK {
	if k > 0 {
		n = min(n, k)
	}
	return topK{k: k, h: make([]Ranked, 0, n)}
}

// offer hands the selection the next entry of the ranking.
func (t *topK) offer(r Ranked) {
	if t.k <= 0 || len(t.h) < t.k {
		t.h = append(t.h, r)
		if len(t.h) == t.k {
			for i := t.k/2 - 1; i >= 0; i-- {
				siftDown(t.h, i)
			}
		}
		return
	}
	if rankedBefore(r, t.h[0]) < 0 {
		t.h[0] = r
		siftDown(t.h, 0)
	}
}

// ranking returns the entries selected, in rankedBefore's order.
func (t *topK) ranking() []Ranked {
	slices.SortFunc(t.h, rankedBefore)
	return t.h
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
