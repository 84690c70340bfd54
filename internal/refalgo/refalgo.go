// Package refalgo provides classic, direct (non-linear-algebra)
// implementations of the graph algorithms in the suite: queue-based BFS,
// Brandes betweenness centrality, Dijkstra and Bellman-Ford shortest paths,
// power-iteration PageRank, adjacency-intersection triangle counting, and
// union-find connected components.
//
// These play the role GBTL played in the paper's Section VIII — an
// independent oracle the GraphBLAS-expressed algorithms are validated
// against — and serve as the baselines in the benchmark harness.
package refalgo

import (
	"container/heap"
	"math"
	"sort"

	"graphblas/internal/generate"
)

// Adjacency is a CSR-like adjacency list built once from an edge list.
type Adjacency struct {
	N      int
	Ptr    []int
	Dst    []int
	Weight []float64
}

// NewAdjacency builds adjacency lists from a graph; duplicate edges are
// kept as parallel edges (callers wanting simple graphs should Dedup the
// graph first).
func NewAdjacency(g *generate.Graph) *Adjacency {
	a := &Adjacency{N: g.N, Ptr: make([]int, g.N+1)}
	for _, e := range g.Edges {
		a.Ptr[e.Src+1]++
	}
	for i := 0; i < g.N; i++ {
		a.Ptr[i+1] += a.Ptr[i]
	}
	a.Dst = make([]int, len(g.Edges))
	a.Weight = make([]float64, len(g.Edges))
	next := append([]int(nil), a.Ptr...)
	for _, e := range g.Edges {
		p := next[e.Src]
		next[e.Src]++
		a.Dst[p] = e.Dst
		a.Weight[p] = e.Weight
	}
	// Sort neighbors for deterministic traversal and fast intersection.
	for i := 0; i < g.N; i++ {
		lo, hi := a.Ptr[i], a.Ptr[i+1]
		idx := a.Dst[lo:hi]
		w := a.Weight[lo:hi]
		sort.Sort(&pairSort{idx, w})
	}
	return a
}

type pairSort struct {
	idx []int
	w   []float64
}

func (p *pairSort) Len() int { return len(p.idx) }
func (p *pairSort) Swap(a, b int) {
	p.idx[a], p.idx[b] = p.idx[b], p.idx[a]
	p.w[a], p.w[b] = p.w[b], p.w[a]
}
func (p *pairSort) Less(a, b int) bool { return p.idx[a] < p.idx[b] }

// Neighbors returns the sorted destination list of vertex v.
func (a *Adjacency) Neighbors(v int) []int { return a.Dst[a.Ptr[v]:a.Ptr[v+1]] }

// BFSLevels returns the hop distance from source for every reached vertex;
// unreached vertices get -1.
func BFSLevels(a *Adjacency, source int) []int {
	level := make([]int, a.N)
	for i := range level {
		level[i] = -1
	}
	level[source] = 0
	queue := []int{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range a.Neighbors(v) {
			if level[u] < 0 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level
}

// BFSParents returns a parent for every reached vertex (the smallest-index
// parent on a shortest hop path, matching the GraphBLAS MinFirst
// convention); the source is its own parent; unreached vertices get -1.
func BFSParents(a *Adjacency, source int) []int {
	parent := make([]int, a.N)
	level := make([]int, a.N)
	for i := range parent {
		parent[i] = -1
		level[i] = -1
	}
	parent[source] = source
	level[source] = 0
	frontier := []int{source}
	for len(frontier) > 0 {
		var next []int
		// Gather candidate parents per next-level vertex; smallest parent
		// index wins, mirroring the Min monoid over parent ids.
		for _, v := range frontier {
			for _, u := range a.Neighbors(v) {
				if level[u] < 0 {
					if parent[u] == -1 || v < parent[u] {
						if parent[u] == -1 {
							next = append(next, u)
						}
						parent[u] = v
					}
				}
			}
		}
		for _, u := range next {
			level[u] = level[parent[u]] + 1
		}
		frontier = next
	}
	return parent
}

// BellmanFord returns single-source shortest path distances; unreachable
// vertices get +Inf. Negative cycles are not handled (weights are assumed
// nonnegative in this suite).
func BellmanFord(a *Adjacency, source int) []float64 {
	dist := make([]float64, a.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	for iter := 0; iter < a.N; iter++ {
		changed := false
		for v := 0; v < a.N; v++ {
			if math.IsInf(dist[v], 1) {
				continue
			}
			for p := a.Ptr[v]; p < a.Ptr[v+1]; p++ {
				if nd := dist[v] + a.Weight[p]; nd < dist[a.Dst[p]] {
					dist[a.Dst[p]] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	v    int
	dist float64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(a, b int) bool { return q[a].dist < q[b].dist }
func (q pq) Swap(a, b int)      { q[a], q[b] = q[b], q[a] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// Dijkstra returns single-source shortest path distances for nonnegative
// weights; unreachable vertices get +Inf.
func Dijkstra(a *Adjacency, source int) []float64 {
	dist := make([]float64, a.N)
	done := make([]bool, a.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	q := &pq{{source, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		for p := a.Ptr[it.v]; p < a.Ptr[it.v+1]; p++ {
			u := a.Dst[p]
			if nd := it.dist + a.Weight[p]; nd < dist[u] {
				dist[u] = nd
				heap.Push(q, pqItem{u, nd})
			}
		}
	}
	return dist
}

// BrandesBC computes exact betweenness centrality for the listed source
// vertices (the batched form matching the paper's BC_update: contributions
// from shortest paths starting at each source), on an unweighted graph.
// Passing all vertices as sources gives the classic full BC score.
func BrandesBC(a *Adjacency, sources []int) []float64 {
	bc := make([]float64, a.N)
	sigma := make([]float64, a.N)
	dist := make([]int, a.N)
	delta := make([]float64, a.N)
	preds := make([][]int, a.N)
	stack := make([]int, 0, a.N)
	for _, s := range sources {
		// init
		for i := 0; i < a.N; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		stack = stack[:0]
		sigma[s] = 1
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, u := range a.Neighbors(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
				if dist[u] == dist[v]+1 {
					sigma[u] += sigma[v]
					preds[u] = append(preds[u], v)
				}
			}
		}
		for k := len(stack) - 1; k >= 0; k-- {
			w := stack[k]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	return bc
}

// PageRank runs power iteration with damping d until the L1 change is below
// tol or maxIter sweeps, using the standard dangling-mass redistribution.
// Returns the rank vector (sums to 1).
func PageRank(a *Adjacency, d float64, tol float64, maxIter int) ([]float64, int) {
	n := a.N
	rank := make([]float64, n)
	next := make([]float64, n)
	outDeg := make([]int, n)
	for v := 0; v < n; v++ {
		outDeg[v] = a.Ptr[v+1] - a.Ptr[v]
		rank[v] = 1 / float64(n)
	}
	iters := 0
	for ; iters < maxIter; iters++ {
		dangling := 0.0
		for v := 0; v < n; v++ {
			if outDeg[v] == 0 {
				dangling += rank[v]
			}
			next[v] = 0
		}
		for v := 0; v < n; v++ {
			if outDeg[v] == 0 {
				continue
			}
			share := rank[v] / float64(outDeg[v])
			for p := a.Ptr[v]; p < a.Ptr[v+1]; p++ {
				next[a.Dst[p]] += share
			}
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)
		diff := 0.0
		for v := 0; v < n; v++ {
			nv := base + d*next[v]
			diff += math.Abs(nv - rank[v])
			rank[v] = nv
		}
		if diff < tol {
			iters++
			break
		}
	}
	return rank, iters
}

// PersonalizedPageRank runs power iteration with damping d and restart
// vertex src until the L1 change is below tol or maxIter sweeps: the
// restart mass (1-d) and the dangling mass return to src, and edges count
// once whatever their weight. It returns the rank vector (sums to 1) and
// the sweep count.
func PersonalizedPageRank(a *Adjacency, src int, d, tol float64, maxIter int) ([]float64, int) {
	n := a.N
	rank := make([]float64, n)
	next := make([]float64, n)
	rank[src] = 1
	iters := 0
	for ; iters < maxIter; iters++ {
		for v := range next {
			next[v] = 0
		}
		var total, linked float64
		for v := 0; v < n; v++ {
			if rank[v] == 0 {
				continue
			}
			total += rank[v]
			nb := a.Neighbors(v)
			if len(nb) == 0 {
				continue
			}
			linked += rank[v]
			share := rank[v] / float64(len(nb))
			for _, u := range nb {
				next[u] += share
			}
		}
		for v := range next {
			next[v] *= d
		}
		next[src] += (1 - d) + d*(total-linked)
		diff := 0.0
		for v := range next {
			diff += math.Abs(next[v] - rank[v])
		}
		rank, next = next, rank
		if diff < tol {
			iters++
			break
		}
	}
	return rank, iters
}

// TriangleCount counts triangles in an undirected simple graph (adjacency
// must be symmetric, loop-free, deduplicated) via sorted neighbor-list
// intersections over the ordered wedge v < u < w.
func TriangleCount(a *Adjacency) int64 {
	var count int64
	for v := 0; v < a.N; v++ {
		nv := a.Neighbors(v)
		for _, u := range nv {
			if u <= v {
				continue
			}
			// count common neighbors w with w > u
			nu := a.Neighbors(u)
			i := sort.SearchInts(nv, u+1)
			j := sort.SearchInts(nu, u+1)
			for i < len(nv) && j < len(nu) {
				switch {
				case nv[i] < nu[j]:
					i++
				case nv[i] > nu[j]:
					j++
				default:
					count++
					i++
					j++
				}
			}
		}
	}
	return count
}

// ConnectedComponents labels the weakly connected components with
// union-find; the label of each component is its smallest vertex index.
func ConnectedComponents(g *generate.Graph) []int {
	parent := make([]int, g.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) {
		rx, ry := find(x), find(y)
		if rx == ry {
			return
		}
		if rx < ry {
			parent[ry] = rx
		} else {
			parent[rx] = ry
		}
	}
	for _, e := range g.Edges {
		union(e.Src, e.Dst)
	}
	label := make([]int, g.N)
	for i := range label {
		label[i] = find(i)
	}
	return label
}
