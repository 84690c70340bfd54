package algorithms

import (
	"math"

	"graphblas/internal/builtins"
	"graphblas/internal/core"
	"graphblas/internal/setalg"
)

// BFSLevels computes hop distances from source over the boolean ∨.∧
// semiring: the frontier expands with a masked vxm (the mask prunes
// discovered vertices, the paper's central mask idiom), and each new
// frontier is assigned its level. Unreached vertices have no entry.
func BFSLevels(a *core.Matrix[bool], source int) (*core.Vector[int32], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	levels, err := core.NewVector[int32](n)
	if err != nil {
		return nil, err
	}
	frontier, err := core.NewVector[bool](n)
	if err != nil {
		return nil, err
	}
	if err := frontier.SetElement(true, source); err != nil {
		return nil, err
	}
	lorLand := builtins.LorLand()
	descRC := core.Desc().ReplaceOutput().CompMask()
	for depth := int32(0); ; depth++ {
		// levels<frontier> = depth (merge mode: earlier levels kept). An
		// empty frontier ends the search; reading its count forces the
		// sequence as a copy of its tuples would, without the copy.
		nv, err := frontier.NVals()
		if err != nil {
			return nil, err
		}
		if nv == 0 {
			break
		}
		if err := core.AssignVectorScalar(levels, frontier, core.NoAccum[int32](), depth, core.All, nil); err != nil {
			return nil, err
		}
		// frontier<!levels> = frontier ∨.∧ A  (discover, pruning visited).
		if err := core.VxM(frontier, levels, core.NoAccum[bool](), lorLand, frontier, a, descRC); err != nil {
			return nil, err
		}
	}
	// The loop ended on a forced read, so freeing forces nothing.
	if err := frontier.Free(); err != nil {
		return nil, err
	}
	return levels, nil
}

// BFSParents computes a shortest-hop-tree parent for every reached vertex
// using the min-first semiring over vertex ids (smallest-index parent
// wins); the source is its own parent. Ids are stored 1-based internally so
// vertex 0 is distinguishable from "no entry", then shifted back.
func BFSParents(a *core.Matrix[bool], source int) (*core.Vector[int64], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	parents, err := core.NewVector[int64](n)
	if err != nil {
		return nil, err
	}
	if err := parents.SetElement(int64(source)+1, source); err != nil {
		return nil, err
	}
	// frontier carries candidate parent ids (1-based).
	frontier, err := core.NewVector[int64](n)
	if err != nil {
		return nil, err
	}
	if err := frontier.SetElement(int64(source)+1, source); err != nil {
		return nil, err
	}
	// id ⊗ A: propagate the source vertex's id along edges — min.first with
	// a mixed-domain ⊗ : int64 × bool → int64 selecting the id.
	minFirst, err := core.NewSemiring(builtins.MinMonoid[int64](), firstLabel)
	if err != nil {
		return nil, err
	}
	descRC := core.Desc().ReplaceOutput().CompMask()
	// The frontier must carry each vertex's own id to its neighbors, so
	// after discovery we overwrite values with the vertex indices.
	setOwnID := core.IndexUnaryOp[int64, int64]{Name: "rowid", F: func(_ int64, i, _ int) int64 { return int64(i) + 1 }}
	for {
		// Candidates' values become their own ids before expansion.
		if err := core.ApplyIndexOpV(frontier, core.NoMaskV, core.NoAccum[int64](), setOwnID, frontier, nil); err != nil {
			return nil, err
		}
		// frontier<!parents> = frontier min.first A.
		if err := core.VxM(frontier, parents, core.NoAccum[int64](), minFirst, frontier, a, descRC); err != nil {
			return nil, err
		}
		nv, err := frontier.NVals()
		if err != nil {
			return nil, err
		}
		if nv == 0 {
			break
		}
		// parents<frontier> = frontier (record parent ids).
		if err := core.AssignVector(parents, frontier, core.NoAccum[int64](), frontier, core.All, nil); err != nil {
			return nil, err
		}
	}
	// Shift ids back to 0-based.
	shift := core.UnaryOp[int64, int64]{Name: "minus1", F: func(x int64) int64 { return x - 1 }}
	if err := core.ApplyV(parents, core.NoMaskV, core.NoAccum[int64](), shift, parents, nil); err != nil {
		return nil, err
	}
	return parents, nil
}

// SSSP computes single-source shortest-path distances over the min-plus
// (tropical) semiring of Table I by Bellman-Ford iteration:
// d ⊙min= d min.+ A until a fixed point. Unreachable vertices have no
// entry. Weights must be nonnegative.
//
// A sweep relaxes only out of the frontier f, the entries the last sweep
// changed — the frontier form of Bellman-Ford that delta-stepping starts
// from. An edge out of a vertex whose distance did not change offers what
// it offered before, which d already holds, so relaxing it again changes
// nothing; and a small frontier lets the engine push instead of pull. A
// sweep computes
//
//	r = f min.+ A
//	changed = (d ⊕min r) ≠ d    over the union, true where d stores nothing
//	d = d ⊕min r
//	f⟨changed⟩ = d
//
// and the iteration stops when f is empty: only f's entry count leaves the
// engine. The difference is tested with ≠, not <, so a NaN distance, which
// never equals itself, stays in the frontier and keeps the iteration
// sweeping; and d ⊕min r keeps d's value where the two tie, as relaxing
// every edge every sweep does. The distances and the sweep count are that
// iteration's, bit for bit, over nonnegative weights. (A NaN weight out of
// a vertex that did not change is not relaxed again here; relaxed every
// sweep, a NaN term that comes first in a min fold hides the terms after it,
// so there the two can differ.)
func SSSP(a *core.Matrix[float64], source int) (*core.Vector[float64], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	var work [3]*core.Vector[float64]
	for i := range work {
		if work[i], err = core.NewVector[float64](n); err != nil {
			return nil, err
		}
	}
	dist, frontier, relaxed := work[0], work[1], work[2]
	if err := dist.SetElement(0, source); err != nil {
		return nil, err
	}
	if err := frontier.SetElement(0, source); err != nil {
		return nil, err
	}
	changed, err := core.NewVector[bool](n)
	if err != nil {
		return nil, err
	}
	minPlus := builtins.MinPlus[float64]()
	minOp := builtins.Min[float64]()
	replace := core.Desc().ReplaceOutput()
	for iter := 0; iter < n; iter++ {
		// relaxed = frontier min.+ A: every edge out of what changed.
		if err := core.VxM(relaxed, core.NoMaskV, core.NoAccum[float64](), minPlus, frontier, a, nil); err != nil {
			return nil, err
		}
		// changed = (dist ⊕min relaxed) ≠ dist. A position relaxed alone
		// stores meets NaN, which min keeps and ≠ tells from everything; one
		// dist alone stores meets +Inf, which min drops.
		if err := core.EWiseUnionV(changed, core.NoMaskV, core.NoAccum[bool](), relaxes, relaxed, math.Inf(1), dist, math.NaN(), nil); err != nil {
			return nil, err
		}
		// dist = dist ⊕min relaxed.
		if err := core.EWiseAddV(dist, core.NoMaskV, core.NoAccum[float64](), minOp, dist, relaxed, nil); err != nil {
			return nil, err
		}
		// The next frontier: frontier⟨changed⟩ = dist, written into the
		// vector this sweep relaxed out of.
		frontier, relaxed = relaxed, frontier
		if err := core.AssignVector(frontier, changed, core.NoAccum[float64](), dist, core.All, replace); err != nil {
			return nil, err
		}
		nv, err := frontier.NVals()
		if err != nil {
			return nil, err
		}
		if nv == 0 {
			break
		}
	}
	if err := core.FreeAll(frontier, relaxed, changed); err != nil {
		return nil, err
	}
	return dist, nil
}

// Reach computes, for every vertex, the set of the given source vertices
// that can reach it (including each source reaching itself), over the
// power-set semiring ⟨∪, ∩, ∅⟩ of Table I: each vertex carries a label set
// over the universe [0, len(sources)); the adjacency entries carry the full
// universe U (the ∩ identity), so l ∪.∩ A propagates each vertex's label
// set unchanged to its out-neighbors, and ∪ merges labels arriving over
// different edges. Iteration stops at the fixed point (≤ n sweeps), tested by
// labelMass.
func Reach(a *core.Matrix[bool], sources []int) (*core.Vector[setalg.Set], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	uni := len(sources)
	labels, err := core.NewVector[setalg.Set](n)
	if err != nil {
		return nil, err
	}
	for k, s := range sources {
		prev, perr := labels.ExtractElement(s)
		if perr != nil && !core.IsNoValue(perr) {
			return nil, perr
		}
		cur := setalg.SetOf(uni, k)
		if perr == nil {
			cur = cur.Union(prev)
		}
		if err := labels.SetElement(cur, s); err != nil {
			return nil, err
		}
	}
	// Lift the boolean adjacency into the set domain: every stored edge
	// carries U, the multiplicative identity.
	full := setalg.FullSet(uni)
	setA, err := core.NewMatrix[setalg.Set](n, n)
	if err != nil {
		return nil, err
	}
	lift := core.UnaryOp[bool, setalg.Set]{Name: "toU", F: func(bool) setalg.Set { return full }}
	if err := core.ApplyM(setA, core.NoMask, core.NoAccum[setalg.Set](), lift, a, nil); err != nil {
		return nil, err
	}
	unionIntersect := setalg.UnionIntersect(uni)
	unionOp := setalg.UnionOp(uni)
	sizes, err := core.NewVector[int64](n)
	if err != nil {
		return nil, err
	}
	mass, err := labelMass(sizes, labels)
	if err != nil {
		return nil, err
	}
	for iter := 0; iter < n; iter++ {
		// labels ⊙∪= labels ∪.∩ A.
		if err := core.VxM(labels, core.NoMaskV, unionOp, unionIntersect, labels, setA, nil); err != nil {
			return nil, err
		}
		next, err := labelMass(sizes, labels)
		if err != nil {
			return nil, err
		}
		if next == mass {
			break
		}
		mass = next
	}
	if err := core.FreeAll(sizes, setA); err != nil {
		return nil, err
	}
	return labels, nil
}

// labelMass returns the total size of the label sets, computed through
// sizes. The ∪ accumulator only grows a label, and a new label is never
// empty, so the total rises if and only if some label changed: Reach's
// fixed-point test, with one scalar leaving the engine per sweep.
func labelMass(sizes *core.Vector[int64], labels *core.Vector[setalg.Set]) (int64, error) {
	if err := core.ApplyV(sizes, core.NoMaskV, core.NoAccum[int64](), setSize, labels, nil); err != nil {
		return 0, err
	}
	return core.ReduceVectorToScalar(0, core.NoAccum[int64](), sumInt64, sizes)
}
