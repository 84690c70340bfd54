// Package graph is the convenience layer over the GraphBLAS API — the role
// the LAGraph library plays over the C API: a Graph handle that bundles the
// adjacency matrix in the domains the algorithm suite needs, caches derived
// objects (boolean/weighted/integer views, the symmetrized form, degrees),
// and exposes each algorithm as one call.
package graph

import (
	"fmt"
	"io"

	"graphblas/internal/algorithms"
	"graphblas/internal/builtins"
	"graphblas/internal/core"
	"graphblas/internal/generate"
)

// Graph wraps an edge list with lazily-built GraphBLAS views. It is not
// safe for concurrent use (the views build on first demand).
type Graph struct {
	src *generate.Graph

	boolA  *core.Matrix[bool]
	floatA *core.Matrix[float64]
	intA   *core.Matrix[int32]
	symA   *core.Matrix[bool] // symmetrized, deduplicated, loop-free
}

// FromEdges wraps an edge-list graph. The edge list is used as-is for the
// directed views and symmetrized on demand for the undirected algorithms.
func FromEdges(g *generate.Graph) *Graph { return &Graph{src: g} }

// FromMatrixMarket reads a coordinate Matrix Market stream.
func FromMatrixMarket(r io.Reader) (*Graph, error) {
	g, _, err := generate.ReadMatrixMarket(r)
	if err != nil {
		return nil, err
	}
	return FromEdges(g.Dedup(true)), nil
}

// N reports the vertex count.
func (g *Graph) N() int { return g.src.N }

// NumEdges reports the directed edge count.
func (g *Graph) NumEdges() int { return len(g.src.Edges) }

// Edges exposes the underlying edge list (shared; do not mutate).
func (g *Graph) Edges() *generate.Graph { return g.src }

// Bool returns the boolean structure view A(i,j) = true per edge.
func (g *Graph) Bool() (*core.Matrix[bool], error) {
	if g.boolA != nil {
		return g.boolA, nil
	}
	rows, cols, _ := g.src.Tuples()
	m, err := core.NewMatrix[bool](g.src.N, g.src.N)
	if err != nil {
		return nil, err
	}
	vals := make([]bool, len(rows))
	for i := range vals {
		vals[i] = true
	}
	if err := m.Build(rows, cols, vals, builtins.LOr()); err != nil {
		return nil, err
	}
	g.boolA = m
	return m, nil
}

// Float returns the weighted view (duplicate edges keep the first weight).
func (g *Graph) Float() (*core.Matrix[float64], error) {
	if g.floatA != nil {
		return g.floatA, nil
	}
	rows, cols, w := g.src.Tuples()
	m, err := core.NewMatrix[float64](g.src.N, g.src.N)
	if err != nil {
		return nil, err
	}
	if err := m.Build(rows, cols, w, builtins.First[float64]()); err != nil {
		return nil, err
	}
	g.floatA = m
	return m, nil
}

// Int32 returns the Figure 3 style integer view with stored 1s.
func (g *Graph) Int32() (*core.Matrix[int32], error) {
	if g.intA != nil {
		return g.intA, nil
	}
	rows, cols, _ := g.src.Tuples()
	m, err := core.NewMatrix[int32](g.src.N, g.src.N)
	if err != nil {
		return nil, err
	}
	vals := make([]int32, len(rows))
	for i := range vals {
		vals[i] = 1
	}
	if err := m.Build(rows, cols, vals, builtins.First[int32]()); err != nil {
		return nil, err
	}
	g.intA = m
	return m, nil
}

// Symmetric returns the symmetrized, deduplicated, loop-free boolean view
// required by the undirected algorithms (triangles, k-core, k-truss, MIS,
// clustering, Jaccard, components).
func (g *Graph) Symmetric() (*core.Matrix[bool], error) {
	if g.symA != nil {
		return g.symA, nil
	}
	sym := &generate.Graph{N: g.src.N, Edges: append([]generate.Edge(nil), g.src.Edges...)}
	sym = sym.Symmetrize().Dedup(true)
	rows, cols, _ := sym.Tuples()
	m, err := core.NewMatrix[bool](sym.N, sym.N)
	if err != nil {
		return nil, err
	}
	vals := make([]bool, len(rows))
	for i := range vals {
		vals[i] = true
	}
	if err := m.Build(rows, cols, vals, builtins.LOr()); err != nil {
		return nil, err
	}
	g.symA = m
	return m, nil
}

// OutDegrees returns the out-degree of every vertex (dense: zero entries
// included).
func (g *Graph) OutDegrees() ([]int, error) {
	a, err := g.Bool()
	if err != nil {
		return nil, err
	}
	n := g.src.N
	ones, err := core.NewMatrix[int64](n, n)
	if err != nil {
		return nil, err
	}
	if err := core.ApplyM(ones, core.NoMask, core.NoAccum[int64](), builtins.CastBoolTo[int64](), a, nil); err != nil {
		return nil, err
	}
	degV, err := core.NewVector[int64](n)
	if err != nil {
		return nil, err
	}
	if err := core.ReduceMatrixToVector(degV, core.NoMaskV, core.NoAccum[int64](), builtins.PlusMonoid[int64](), ones, nil); err != nil {
		return nil, err
	}
	out := make([]int, n)
	idx, val, err := degV.ExtractTuples()
	if err != nil {
		return nil, err
	}
	for k := range idx {
		out[idx[k]] = int(val[k])
	}
	return out, nil
}

// checkSource validates a source vertex id.
func (g *Graph) checkSource(src int) error {
	if src < 0 || src >= g.src.N {
		return fmt.Errorf("graph: source %d out of range [0,%d)", src, g.src.N)
	}
	return nil
}

// BFS returns hop distances from src (-1 for unreached).
func (g *Graph) BFS(src int) ([]int, error) {
	if err := g.checkSource(src); err != nil {
		return nil, err
	}
	a, err := g.Bool()
	if err != nil {
		return nil, err
	}
	lv, err := algorithms.BFSLevels(a, src)
	if err != nil {
		return nil, err
	}
	out := make([]int, g.src.N)
	for i := range out {
		out[i] = -1
	}
	idx, val, err := lv.ExtractTuples()
	if err != nil {
		return nil, err
	}
	for k := range idx {
		out[idx[k]] = int(val[k])
	}
	return out, nil
}

// SSSP returns shortest-path distances from src (+Inf encoded as missing:
// the bool slice reports reachability).
func (g *Graph) SSSP(src int) (dist []float64, reached []bool, err error) {
	if err := g.checkSource(src); err != nil {
		return nil, nil, err
	}
	a, err := g.Float()
	if err != nil {
		return nil, nil, err
	}
	d, err := algorithms.SSSP(a, src)
	if err != nil {
		return nil, nil, err
	}
	dist = make([]float64, g.src.N)
	reached = make([]bool, g.src.N)
	idx, val, err := d.ExtractTuples()
	if err != nil {
		return nil, nil, err
	}
	for k := range idx {
		dist[idx[k]] = val[k]
		reached[idx[k]] = true
	}
	return dist, reached, nil
}

// PageRank returns the rank vector and sweep count.
func (g *Graph) PageRank(damping, tol float64, maxIter int) ([]float64, int, error) {
	a, err := g.Float()
	if err != nil {
		return nil, 0, err
	}
	r, iters, err := algorithms.PageRank(a, damping, tol, maxIter)
	if err != nil {
		return nil, 0, err
	}
	out := make([]float64, g.src.N)
	idx, val, err := r.ExtractTuples()
	if err != nil {
		return nil, 0, err
	}
	for k := range idx {
		out[idx[k]] = val[k]
	}
	return out, iters, nil
}

// BC returns batched betweenness-centrality contributions from the given
// sources (the paper's BC_update).
func (g *Graph) BC(sources []int) ([]float64, error) {
	for _, s := range sources {
		if err := g.checkSource(s); err != nil {
			return nil, err
		}
	}
	a, err := g.Int32()
	if err != nil {
		return nil, err
	}
	delta, err := algorithms.BCUpdate(a, sources)
	if err != nil {
		return nil, err
	}
	out := make([]float64, g.src.N)
	idx, val, err := delta.ExtractTuples()
	if err != nil {
		return nil, err
	}
	for k := range idx {
		out[idx[k]] = float64(val[k])
	}
	return out, nil
}

// TriangleCount counts triangles of the symmetrized graph.
func (g *Graph) TriangleCount() (int64, error) {
	a, err := g.Symmetric()
	if err != nil {
		return 0, err
	}
	return algorithms.TriangleCount(a)
}

// ConnectedComponents labels weakly connected components (smallest member
// id as label) on the symmetrized graph.
func (g *Graph) ConnectedComponents() ([]int, error) {
	a, err := g.Symmetric()
	if err != nil {
		return nil, err
	}
	labels, err := algorithms.ConnectedComponents(a)
	return vecToInts(g.src.N, labels, err)
}

// SCC labels strongly connected components of the directed graph.
func (g *Graph) SCC() ([]int, error) {
	a, err := g.Bool()
	if err != nil {
		return nil, err
	}
	labels, err := algorithms.SCC(a)
	return vecToInts(g.src.N, labels, err)
}

// CoreNumbers returns the coreness of every vertex (symmetrized view).
func (g *Graph) CoreNumbers() ([]int, error) {
	a, err := g.Symmetric()
	if err != nil {
		return nil, err
	}
	cores, err := algorithms.CoreNumbers(a)
	return vecToInts(g.src.N, cores, err)
}

// KTruss returns the edges (u < v) of the k-truss of the symmetrized graph.
func (g *Graph) KTruss(k int) ([][2]int, error) {
	a, err := g.Symmetric()
	if err != nil {
		return nil, err
	}
	truss, err := algorithms.KTruss(a, k)
	if err != nil {
		return nil, err
	}
	is, js, _, err := truss.ExtractTuples()
	if err != nil {
		return nil, err
	}
	var out [][2]int
	for p := range is {
		if is[p] < js[p] {
			out = append(out, [2]int{is[p], js[p]})
		}
	}
	return out, nil
}

// ClusteringCoefficients returns the local clustering coefficient of every
// vertex of the symmetrized graph.
func (g *Graph) ClusteringCoefficients() ([]float64, error) {
	a, err := g.Symmetric()
	if err != nil {
		return nil, err
	}
	cc, err := algorithms.ClusteringCoefficients(a)
	if err != nil {
		return nil, err
	}
	out := make([]float64, g.src.N)
	idx, val, err := cc.ExtractTuples()
	if err != nil {
		return nil, err
	}
	for k := range idx {
		out[idx[k]] = val[k]
	}
	return out, nil
}

// MIS returns a maximal independent set of the symmetrized graph.
func (g *Graph) MIS(seed uint64) ([]int, error) {
	a, err := g.Symmetric()
	if err != nil {
		return nil, err
	}
	set, err := algorithms.MIS(a, seed)
	if err != nil {
		return nil, err
	}
	idx, val, err := set.ExtractTuples()
	if err != nil {
		return nil, err
	}
	var out []int
	for k := range idx {
		if val[k] {
			out = append(out, idx[k])
		}
	}
	return out, nil
}

// Reach returns, for every vertex, the set of the given sources that can
// reach it (power-set semiring).
func (g *Graph) Reach(sources []int) ([][]int, error) {
	for _, s := range sources {
		if err := g.checkSource(s); err != nil {
			return nil, err
		}
	}
	a, err := g.Bool()
	if err != nil {
		return nil, err
	}
	labels, err := algorithms.Reach(a, sources)
	if err != nil {
		return nil, err
	}
	out := make([][]int, g.src.N)
	idx, val, err := labels.ExtractTuples()
	if err != nil {
		return nil, err
	}
	for k := range idx {
		out[idx[k]] = val[k].Members()
	}
	return out, nil
}

// vecToInts flattens an (int64 vector, error) result into a dense int slice.
func vecToInts(n int, v *core.Vector[int64], err error) ([]int, error) {
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	idx, val, err := v.ExtractTuples()
	if err != nil {
		return nil, err
	}
	for k := range idx {
		out[idx[k]] = int(val[k])
	}
	return out, nil
}

// GreedyColor returns a proper vertex coloring of the symmetrized graph and
// the number of colors used.
func (g *Graph) GreedyColor(seed uint64) ([]int, int, error) {
	a, err := g.Symmetric()
	if err != nil {
		return nil, 0, err
	}
	colors, used, err := algorithms.GreedyColor(a, seed)
	if err != nil {
		return nil, 0, err
	}
	out, err := vecToInts(g.src.N, colors, nil)
	if err != nil {
		return nil, 0, err
	}
	return out, used, nil
}

// BCAll computes exact betweenness centrality over all sources in batches.
func (g *Graph) BCAll(batchSize int) ([]float64, error) {
	a, err := g.Int32()
	if err != nil {
		return nil, err
	}
	bc, err := algorithms.BCAll(a, batchSize)
	if err != nil {
		return nil, err
	}
	out := make([]float64, g.src.N)
	idx, val, err := bc.ExtractTuples()
	if err != nil {
		return nil, err
	}
	for k := range idx {
		out[idx[k]] = float64(val[k])
	}
	return out, nil
}
