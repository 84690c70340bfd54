package algorithms

import (
	"graphblas/internal/builtins"
	"graphblas/internal/core"
)

// TriangleCount counts the triangles of an undirected simple graph given as
// a symmetric boolean adjacency matrix with no self-loops, using the
// masked-multiply formulation (Sandia variant): with L the strictly lower
// triangle, every triangle i>j>k is counted exactly once by
//
//	C⟨L⟩ = L +.pair Lᵀ ;  count = Σ C,   pair(x, y) = 1.
//
// The semiring is mixed-domain (bool ⊗ bool → int64), so L stays the boolean
// pattern it is selected as and only the wedge counts are integers. The
// write mask confining the product to L's structure is the same pruning
// idiom the paper's BC example builds on — the kernel never materializes
// the full wedge count matrix.
func TriangleCount(a *core.Matrix[bool]) (int64, error) {
	n, err := a.NRows()
	if err != nil {
		return 0, err
	}
	l, err := core.NewMatrix[bool](n, n)
	if err != nil {
		return 0, err
	}
	if err := core.SelectM(l, core.NoMask, core.NoAccum[bool](), strictLower, a, nil); err != nil {
		return 0, err
	}
	plusPair, err := core.NewSemiring(builtins.PlusMonoid[int64](), pairCount)
	if err != nil {
		return 0, err
	}
	c, err := core.NewMatrix[int64](n, n)
	if err != nil {
		return 0, err
	}
	// C⟨L⟩ = L +.pair Lᵀ : wedges i–k, j–k with k < j < i, closed by the
	// mask requiring edge (i, j).
	if err := core.MxM(c, l, core.NoAccum[int64](), plusPair, l, l, core.Desc().Transpose1().ReplaceOutput()); err != nil {
		return 0, err
	}
	count, err := core.ReduceMatrixToScalar(0, core.NoAccum[int64](), builtins.PlusMonoid[int64](), c)
	if err != nil {
		return 0, err
	}
	// The reduce forced the sequence, so freeing adds no flush: L and C go
	// back to the pool for the next count's select and product.
	if err := core.FreeAll(l, c); err != nil {
		return 0, err
	}
	return count, nil
}

// ConnectedComponents labels the weakly connected components of a symmetric
// boolean adjacency matrix by min-label propagation over the ⟨min, second⟩
// semiring: every vertex starts with its own id and repeatedly takes the
// minimum of its neighbors' labels until a fixed point. The returned label
// of each component is its smallest vertex id.
func ConnectedComponents(a *core.Matrix[bool]) (*core.Vector[int64], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	labels, err := core.NewVector[int64](n)
	if err != nil {
		return nil, err
	}
	ownID := core.IndexUnaryOp[int64, int64]{Name: "rowid", F: func(_ int64, i, _ int) int64 { return int64(i) }}
	if err := core.AssignVectorScalar(labels, core.NoMaskV, core.NoAccum[int64](), 0, core.All, nil); err != nil {
		return nil, err
	}
	if err := core.ApplyIndexOpV(labels, core.NoMaskV, core.NoAccum[int64](), ownID, labels, nil); err != nil {
		return nil, err
	}
	// l' = min(l, l min.first A): ⊗(l_k, A(k,j)) must produce l_k, so ⊗ is
	// the mixed-domain first, ⊗(l, edge) = l.
	minCarry, err := core.NewSemiring(builtins.MinMonoid[int64](), firstLabel)
	if err != nil {
		return nil, err
	}
	minOp := builtins.Min[int64]()
	// Every label is stored and the min accumulator can only lower one, so
	// the labels' sum falls if and only if some label changed. The fixed
	// point is tested with one reduce per sweep, and only its scalar leaves
	// the engine.
	sum, err := core.ReduceVectorToScalar(0, core.NoAccum[int64](), sumInt64, labels)
	if err != nil {
		return nil, err
	}
	for iter := 0; iter < n; iter++ {
		if err := core.VxM(labels, core.NoMaskV, minOp, minCarry, labels, a, nil); err != nil {
			return nil, err
		}
		next, err := core.ReduceVectorToScalar(0, core.NoAccum[int64](), sumInt64, labels)
		if err != nil {
			return nil, err
		}
		if next == sum {
			break
		}
		sum = next
	}
	return labels, nil
}

// MIS computes a maximal independent set of a symmetric simple graph by
// Luby's randomized algorithm expressed in GraphBLAS primitives: each
// candidate draws a random score; vertices whose score beats every
// neighbor's join the set; their neighbors leave the candidate pool. The
// result is the boolean membership vector. seed makes runs reproducible.
func MIS(a *core.Matrix[bool], seed uint64) (*core.Vector[bool], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	inSet, err := core.NewVector[bool](n)
	if err != nil {
		return nil, err
	}
	// candidates: initially everyone.
	cand, err := core.NewVector[bool](n)
	if err != nil {
		return nil, err
	}
	if err := core.AssignVectorScalar(cand, core.NoMaskV, core.NoAccum[bool](), true, core.All, nil); err != nil {
		return nil, err
	}
	// Degree (for tie-breaking randomness weighting, and to admit isolated
	// vertices immediately).
	maxMonoid := builtins.MaxMonoid[float64]()
	state := seed | 1
	nextRand := func(i int) float64 {
		// splitmix-style hash of (state, i) for a stable per-round score.
		x := state + uint64(i)*0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		return float64(x>>11) / (1 << 53)
	}
	for round := 0; round < 10*n+10; round++ {
		ncand, err := cand.NVals()
		if err != nil {
			return nil, err
		}
		if ncand == 0 {
			break
		}
		state = state*6364136223846793005 + 1442695040888963407
		// score: random value per candidate.
		score, err := core.NewVector[float64](n)
		if err != nil {
			return nil, err
		}
		draw := core.IndexUnaryOp[bool, float64]{Name: "rand", F: func(_ bool, i, _ int) float64 { return 1e-9 + nextRand(i) }}
		if err := core.ApplyIndexOpV(score, cand, core.NoAccum[float64](), draw, cand, core.Desc().ReplaceOutput()); err != nil {
			return nil, err
		}
		// neighborMax<cand> = score max.first A  (max over in-neighbors;
		// symmetric graph makes this the neighborhood max).
		maxCarry, err := core.NewSemiring(maxMonoid, firstScore)
		if err != nil {
			return nil, err
		}
		nbrMax, err := core.NewVector[float64](n)
		if err != nil {
			return nil, err
		}
		if err := core.VxM(nbrMax, cand, core.NoAccum[float64](), maxCarry, score, a, core.Desc().ReplaceOutput()); err != nil {
			return nil, err
		}
		// winners: candidates whose score > neighborhood max (vertices with
		// no candidate neighbor win by default — eWiseAdd keeps their score,
		// and the comparison against the absent max is handled by giving
		// absent maxima -∞ via the union with 0-weighted... simpler: winners
		// = score entries where nbrMax has no entry or score > nbrMax).
		winners, err := core.NewVector[bool](n)
		if err != nil {
			return nil, err
		}
		gt := builtins.Gt[float64]()
		// both present: score > nbrMax.
		if err := core.EWiseMultV(winners, core.NoMaskV, core.NoAccum[bool](), gt, score, nbrMax, nil); err != nil {
			return nil, err
		}
		// candidates with no neighbor max at all are automatic winners:
		// winners<!nbrMax> += true over score's structure.
		toTrue := core.UnaryOp[float64, bool]{Name: "true", F: func(float64) bool { return true }}
		if err := core.ApplyV(winners, nbrMax, core.NoAccum[bool](), toTrue, score, core.Desc().CompMask()); err != nil {
			return nil, err
		}
		// Keep only true winners as structure.
		isTrue := core.IndexUnaryOp[bool, bool]{Name: "istrue", F: func(v bool, _, _ int) bool { return v }}
		if err := core.SelectV(winners, core.NoMaskV, core.NoAccum[bool](), isTrue, winners, core.Desc().ReplaceOutput()); err != nil {
			return nil, err
		}
		wn, err := winners.NVals()
		if err != nil {
			return nil, err
		}
		if wn == 0 {
			continue // rare all-tie round; redraw
		}
		// inSet<winners> = true.
		if err := core.AssignVectorScalar(inSet, winners, core.NoAccum[bool](), true, core.All, nil); err != nil {
			return nil, err
		}
		// neighbors of winners leave the pool: nbr = winners ∨.∧ A.
		nbr, err := core.NewVector[bool](n)
		if err != nil {
			return nil, err
		}
		if err := core.VxM(nbr, core.NoMaskV, core.NoAccum[bool](), builtins.LorLand(), winners, a, nil); err != nil {
			return nil, err
		}
		// cand = cand minus winners minus their neighbors: keep cand entries
		// outside both structures.
		keep, err := cand.Dup()
		if err != nil {
			return nil, err
		}
		if err := core.ApplyV(cand, winners, core.NoAccum[bool](), builtins.Identity[bool](), keep, core.Desc().CompMask().ReplaceOutput()); err != nil {
			return nil, err
		}
		keep2, err := cand.Dup()
		if err != nil {
			return nil, err
		}
		if err := core.ApplyV(cand, nbr, core.NoAccum[bool](), builtins.Identity[bool](), keep2, core.Desc().CompMask().ReplaceOutput()); err != nil {
			return nil, err
		}
	}
	return inSet, nil
}

// GreedyColor computes a proper vertex coloring of a symmetric simple graph
// by the Jones–Plassmann-style repeated-MIS schedule: each round finds a
// maximal independent set of the still-uncolored subgraph and assigns it
// the next color. Returns the color of every vertex (0-based) and the
// number of colors used.
func GreedyColor(a *core.Matrix[bool], seed uint64) (*core.Vector[int64], int, error) {
	n, err := a.NRows()
	if err != nil {
		return nil, 0, err
	}
	colors, err := core.NewVector[int64](n)
	if err != nil {
		return nil, 0, err
	}
	// remaining: uncolored vertices.
	remaining, err := core.NewVector[bool](n)
	if err != nil {
		return nil, 0, err
	}
	if err := core.AssignVectorScalar(remaining, core.NoMaskV, core.NoAccum[bool](), true, core.All, nil); err != nil {
		return nil, 0, err
	}
	// Work on a shrinking copy of the adjacency: after each round the
	// colored vertices' edges are removed by masking rows and columns.
	work, err := a.Dup()
	if err != nil {
		return nil, 0, err
	}
	compReplace := core.Desc().CompMask().ReplaceOutput()
	color := int64(0)
	// dropped holds the last round's work graph and its copy, which the
	// select that made the new work graph read. The NVals at the top of
	// each round forces the sequence, so freeing them there adds no flush.
	var dropped [2]*core.Matrix[bool]
	for ; ; color++ {
		nr, err := remaining.NVals()
		if err != nil {
			return nil, 0, err
		}
		if err := core.FreeAll(dropped[0], dropped[1]); err != nil {
			return nil, 0, err
		}
		if nr == 0 {
			break
		}
		set, err := MIS(work, seed+uint64(color)*7919)
		if err != nil {
			return nil, 0, err
		}
		// Restrict the MIS to still-uncolored vertices (the masked rows of
		// work may retain isolated colored vertices as trivial members).
		chosen, err := core.NewVector[bool](n)
		if err != nil {
			return nil, 0, err
		}
		if err := core.EWiseMultV(chosen, core.NoMaskV, core.NoAccum[bool](), builtins.LAnd(), set, remaining, nil); err != nil {
			return nil, 0, err
		}
		nc, err := chosen.NVals()
		if err != nil {
			return nil, 0, err
		}
		if nc == 0 {
			// Can only happen if remaining is nonempty but MIS returned
			// nothing new — guard against livelock by coloring one vertex.
			idx, _, err := remaining.ExtractTuples()
			if err != nil {
				return nil, 0, err
			}
			if err := chosen.SetElement(true, idx[0]); err != nil {
				return nil, 0, err
			}
		}
		// colors<chosen> = color.
		if err := core.AssignVectorScalar(colors, chosen, core.NoAccum[int64](), color, core.All, nil); err != nil {
			return nil, 0, err
		}
		// remaining -= chosen.
		keep, err := remaining.Dup()
		if err != nil {
			return nil, 0, err
		}
		if err := core.ApplyV(remaining, chosen, core.NoAccum[bool](), builtins.Identity[bool](), keep, compReplace); err != nil {
			return nil, 0, err
		}
		// Remove colored vertices from the working graph: keep only
		// remaining×remaining entries.
		pruned, err := core.NewMatrix[bool](n, n)
		if err != nil {
			return nil, 0, err
		}
		remIdx, _, err := remaining.ExtractTuples()
		if err != nil {
			return nil, 0, err
		}
		if len(remIdx) == 0 {
			if err := pruned.Free(); err != nil {
				return nil, 0, err
			}
			color++
			break
		}
		keepEdge := core.IndexUnaryOp[bool, bool]{Name: "keep", F: func(_ bool, i, j int) bool {
			return inSorted(remIdx, i) && inSorted(remIdx, j)
		}}
		wd, err := work.Dup()
		if err != nil {
			return nil, 0, err
		}
		if err := core.SelectM(pruned, core.NoMask, core.NoAccum[bool](), keepEdge, wd, nil); err != nil {
			return nil, 0, err
		}
		dropped = [2]*core.Matrix[bool]{work, wd}
		work = pruned
	}
	if err := work.Free(); err != nil {
		return nil, 0, err
	}
	return colors, int(color), nil
}

// inSorted reports membership of x in a sorted slice.
func inSorted(xs []int, x int) bool {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(xs) && xs[lo] == x
}
