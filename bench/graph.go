package main

import (
	"math"
	"sort"

	"graphblas/internal/generate"
	"graphblas/internal/refalgo"
)

// minSourceDegree is the least out-degree of a vertex queries start from.
// About 40 % of RMAT vertices are isolated; a BFS from one of them returns
// in microseconds and makes every latency distribution bimodal.
const minSourceDegree = 4

// subSeed derives an independent stream seed from the run seed and up to
// three small integers (workload, client, block), by splitmix64 steps.
func subSeed(seed uint64, parts ...int) uint64 {
	x := seed
	for _, p := range parts {
		x += 0x9e3779b97f4a7c15 + uint64(p)*0xbf58476d1ce4e5b9
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// graphInput is one generated graph with what the oracles need: the
// program receives only g's edges, everything else stays on the bench side.
type graphInput struct {
	g       *generate.Graph // directed, deduplicated, loop-free
	adj     *refalgo.Adjacency
	sources []int // seeded permutation of the vertices with out-degree ≥ minSourceDegree
}

// structureSeed draws the RMAT structure of a given scale, the same for every
// run seed.
const structureSeed = 0x6772626c6173 // "grblas"

// newGraphInput makes the graph of a run: one fixed RMAT draw per scale under
// a relabelling of its vertices drawn from the run seed. Every seed gives
// another adjacency matrix (other rows hold the hubs, other rows fall to
// each shard, other sources are eligible) with the same degree sequence,
// triangle count and diameter, so the work of an op does not depend on the
// seed. With a fresh RMAT draw per seed it did, and that difference between
// inputs was most of a metric's spread over seeds: alloc_mb_per_op of
// shard2-read spread by 10 % over six seeds against 0.1 % over six runs on
// one seed, ref_cpu_ms_per_op by 9 % against 5 %.
func newGraphInput(scale, edgeFactor int, seed uint64) *graphInput {
	g := generate.RMAT(scale, edgeFactor, subSeed(structureSeed, scale)).Dedup(true)
	label := generate.NewRNG(subSeed(seed, 2)).Perm(g.N)
	for i, e := range g.Edges {
		g.Edges[i].Src, g.Edges[i].Dst = label[e.Src], label[e.Dst]
	}
	in := &graphInput{g: g, adj: refalgo.NewAdjacency(g)}
	in.sources = eligibleSources(in.adj, subSeed(seed, 1))
	return in
}

func eligibleSources(adj *refalgo.Adjacency, seed uint64) []int {
	var ok []int
	for v := 0; v < adj.N; v++ {
		if adj.Ptr[v+1]-adj.Ptr[v] >= minSourceDegree {
			ok = append(ok, v)
		}
	}
	perm := generate.NewRNG(seed).Perm(len(ok))
	out := make([]int, len(ok))
	for i, p := range perm {
		out[i] = ok[p]
	}
	return out
}

// symmetrized returns the undirected version of g as a fresh graph.
func symmetrized(g *generate.Graph) *generate.Graph {
	s := &generate.Graph{N: g.N, Edges: append([]generate.Edge(nil), g.Edges...)}
	return s.Symmetrize()
}

// khopSet is the oracle of /query/khop: every vertex within k hops of src,
// src included, ascending.
func khopSet(adj *refalgo.Adjacency, src, k int) []int {
	seen := map[int]bool{src: true}
	frontier := []int{src}
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		var next []int
		for _, v := range frontier {
			for _, u := range adj.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// pprDense is the oracle of /query/ppr: the server's personalized PageRank
// (restart and dangling mass both return to src, unit edge weights, L1
// stopping rule) as a dense power iteration.
func pprDense(adj *refalgo.Adjacency, src int, damping, tol float64, maxIter int) []float64 {
	n := adj.N
	rank := make([]float64, n)
	next := make([]float64, n)
	rank[src] = 1
	for it := 0; it < maxIter; it++ {
		for i := range next {
			next[i] = 0
		}
		var total, linked float64
		for v := 0; v < n; v++ {
			if rank[v] == 0 {
				continue
			}
			total += rank[v]
			nb := adj.Neighbors(v)
			if len(nb) == 0 {
				continue
			}
			linked += rank[v]
			share := rank[v] / float64(len(nb))
			for _, u := range nb {
				next[u] += share
			}
		}
		var diff float64
		for v := range next {
			next[v] *= damping
		}
		next[src] += (1 - damping) + damping*(total-linked)
		for v := range next {
			diff += math.Abs(next[v] - rank[v])
		}
		rank, next = next, rank
		if diff < tol {
			break
		}
	}
	return rank
}

// topScores returns the k largest values of rank, descending.
func topScores(rank []float64, k int) []float64 {
	s := sorted(rank)
	out := make([]float64, 0, k)
	for i := len(s) - 1; i >= 0 && len(out) < k && s[i] > 0; i-- {
		out = append(out, s[i])
	}
	return out
}

func closeTo(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
