package algorithms

import (
	"graphblas/internal/builtins"
	"graphblas/internal/core"
)

// PageRank computes the damped PageRank vector of the directed graph A
// (any positive edge values; only the structure matters) by power
// iteration expressed in GraphBLAS primitives:
//
//	outdeg = A ⟨+, pair⟩ 1                    (mxv: stored entries per row)
//	share  = r ./ outdeg                     (eWiseMult)
//	r'     = (1-d)/n + d·dangling/n + d·(shareᵀ ⟨+, first⟩ A)   (vxm)
//
// Both products read A's structure through the semiring instead of a copy
// of A with every value set to 1: pair(a, 1) = 1 counts an entry, and
// first(s, a) = s is exactly the s·1.0 a 1-valued copy would multiply by,
// so the ranks are the ones that copy gives, bit for bit — without building
// it, or its transpose, on every call; A's own cached transpose serves every
// call after the first that pulls.
//
// Dangling mass (vertices with no out-edges) is redistributed uniformly,
// matching the classic formulation. Iteration stops when the L1 change
// drops below tol or after maxIter sweeps; the achieved sweep count is
// returned. At tol ≤ 0 only maxIter can stop it, and the L1 change is not
// computed.
func PageRank(a *core.Matrix[float64], damping, tol float64, maxIter int) (*core.Vector[float64], int, error) {
	return PageRankFrom(a, nil, damping, tol, maxIter)
}

// PageRankFrom is PageRank with a warm start: iteration resumes from the
// given rank vector instead of the uniform distribution. This is the
// incremental recomputation path of the streaming engine — after a batch of
// edge updates lands, restarting power iteration from the previous graph's
// converged ranks reaches the updated fixed point in a handful of sweeps,
// because a small perturbation of the graph moves the fixed point only
// slightly. start must be a dense vector of length NRows(a) (typically a
// previous PageRank result); nil start means the cold uniform start.
func PageRankFrom(a *core.Matrix[float64], start *core.Vector[float64], damping, tol float64, maxIter int) (*core.Vector[float64], int, error) {
	n, err := a.NRows()
	if err != nil {
		return nil, 0, err
	}
	// Out-degree as a count of stored entries: A ⟨+, pair⟩ 1. A row with no
	// entries gets no outdeg entry, as a reduce would leave it.
	plusPair, err := core.NewSemiring(builtins.PlusMonoid[float64](), pairDegree)
	if err != nil {
		return nil, 0, err
	}
	ones, err := core.NewVector[float64](n)
	if err != nil {
		return nil, 0, err
	}
	if err := core.AssignVectorScalar(ones, core.NoMaskV, core.NoAccum[float64](), 1, core.All, nil); err != nil {
		return nil, 0, err
	}
	outdeg, err := core.NewVector[float64](n)
	if err != nil {
		return nil, 0, err
	}
	if err := core.MxV(outdeg, core.NoMaskV, core.NoAccum[float64](), plusPair, a, ones, nil); err != nil {
		return nil, 0, err
	}

	rank, err := core.NewVector[float64](n)
	if err != nil {
		return nil, 0, err
	}
	if start != nil {
		if err := core.AssignVector(rank, core.NoMaskV, core.NoAccum[float64](), start, core.All, nil); err != nil {
			return nil, 0, err
		}
	} else if err := core.AssignVectorScalar(rank, core.NoMaskV, core.NoAccum[float64](), 1/float64(n), core.All, nil); err != nil {
		return nil, 0, err
	}

	plusFirst := builtins.PlusFirst[float64]()
	plusMonoid := builtins.PlusMonoid[float64]()
	div := builtins.Div[float64]()

	first := builtins.First[float64]()
	plus := builtins.Plus[float64]()
	scale := core.UnaryOp[float64, float64]{Name: "damp", F: func(x float64) float64 { return damping * x }}

	// The sweep's four work vectors; each is fully overwritten every sweep.
	// next and rank trade places at the end of every sweep.
	var work [4]*core.Vector[float64]
	for i := range work {
		if work[i], err = core.NewVector[float64](n); err != nil {
			return nil, 0, err
		}
	}
	share, next, withEdges, diffV := work[0], work[1], work[2], work[3]

	iters := 0
	for ; iters < maxIter; iters++ {
		// share = rank ./ outdeg — intersection semantics drop dangling
		// vertices (no outdeg entry), which is exactly what we want.
		if err := core.EWiseMultV(share, core.NoMaskV, core.NoAccum[float64](), div, rank, outdeg, core.Desc().ReplaceOutput()); err != nil {
			return nil, 0, err
		}
		// Dangling mass: total rank minus mass that has out-edges.
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

		// next = shareᵀ A over ⟨+, first⟩ : inbound contributions.
		if err := next.Clear(); err != nil {
			return nil, 0, err
		}
		if err := core.VxM(next, core.NoMaskV, core.NoAccum[float64](), plusFirst, share, a, nil); err != nil {
			return nil, 0, err
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		// next = base + damping * next over all n positions: scale then fill-
		// accumulate so absent entries also get the base value.
		if err := core.ApplyV(next, core.NoMaskV, core.NoAccum[float64](), scale, next, nil); err != nil {
			return nil, 0, err
		}
		if err := core.AssignVectorScalar(next, core.NoMaskV, plus, base, core.All, nil); err != nil {
			return nil, 0, err
		}
		// L1 change. It is never negative, so at tol ≤ 0 it cannot end the
		// loop, and it is not computed: it would cost an eWiseAdd, a reduce
		// and the flush the reduce forces, every sweep.
		converged := false
		if tol > 0 {
			if err := core.EWiseAddV(diffV, core.NoMaskV, core.NoAccum[float64](), absDiff, next, rank, nil); err != nil {
				return nil, 0, err
			}
			diff, err := core.ReduceVectorToScalar(0, core.NoAccum[float64](), plusMonoid, diffV)
			if err != nil {
				return nil, 0, err
			}
			converged = diff < tol
		}
		// rank = next: the vectors trade places, and the old ranks are the
		// next sweep's output.
		rank, next = next, rank
		if converged {
			iters++
			break
		}
	}
	// Freeing forces the last sweep's pending ops, unless the loop ended on
	// the L1 test's forced read.
	if err := freeAll(ones, outdeg, share, next, withEdges, diffV); err != nil {
		return nil, 0, err
	}
	return rank, iters, nil
}
