package algorithms

import (
	"context"

	"graphblas/internal/builtins"
	"graphblas/internal/core"
)

// PageRank computes the damped PageRank vector of the directed graph A
// (any positive edge values; only the structure matters) by power
// iteration expressed in GraphBLAS primitives:
//
//	outdeg = A ⟨+, pair⟩ 1/n                  (mxv: stored entries per row)
//	share  = r ./ outdeg                     (eWiseMult)
//	r'     = (1-d)/n + d·dangling/n + d·(shareᵀ ⟨+, first⟩ A)   (vxm)
//
// Both products read A's structure through the semiring instead of a copy
// of A with every value set to 1: pair(a, x) = 1 counts an entry, and
// first(s, a) = s is exactly the s·1.0 a 1-valued copy would multiply by,
// so the ranks are the ones that copy gives, bit for bit — without building
// it, or its transpose, on every call; A's own cached transpose serves every
// call after the first that pulls.
//
// Dangling mass (vertices with no out-edges) is redistributed uniformly,
// matching the classic formulation. PowerIterate runs the sweeps and
// returns their count.
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
	plusPair, err := core.NewSemiring(builtins.PlusMonoid[float64](), pairDegree)
	if err != nil {
		return nil, 0, err
	}
	rank, err := core.NewVector[float64](n)
	if err != nil {
		return nil, 0, err
	}
	if err := core.AssignVectorScalar(rank, core.NoMaskV, core.NoAccum[float64](), 1/float64(n), core.All, nil); err != nil {
		return nil, 0, err
	}
	// Out-degree as a count of stored entries: A ⟨+, pair⟩ over the uniform
	// start, dense, whose values pair ignores. A row with no entries gets no
	// outdeg entry, as a reduce would leave it.
	outdeg, err := core.NewVector[float64](n)
	if err != nil {
		return nil, 0, err
	}
	if err := core.MxV(outdeg, core.NoMaskV, core.NoAccum[float64](), plusPair, a, rank, nil); err != nil {
		return nil, 0, err
	}
	if start != nil {
		if err := core.AssignVector(rank, core.NoMaskV, core.NoAccum[float64](), start, core.All, nil); err != nil {
			return nil, 0, err
		}
	}

	plusFirst := builtins.PlusFirst[float64]()
	product := func(out, in *core.Vector[float64]) error {
		return core.VxM(out, core.NoMaskV, core.NoAccum[float64](), plusFirst, in, a, nil)
	}
	rank, iters, err := PowerIterate(context.TODO(), rank, outdeg, core.All, product, damping, tol, maxIter)
	if err != nil {
		return nil, 0, err
	}
	if err := outdeg.Free(); err != nil {
		return nil, 0, err
	}
	return rank, iters, nil
}

// PowerIterate is the one sweep body of PageRank and personalized PageRank:
// damped power iteration from rank until a sweep's L1 change drops below tol
// or maxIter sweeps have run, returning the ranks and the sweep count. A
// sweep computes share = r ./ outdeg and
//
//	r' = d·product(share), plus (1-d)/|T| + d·dangling/|T| on T
//
// where outdeg has no entry for a dangling vertex (no out-edges), T is the
// teleport set — core.All for PageRank, {src} for personalized PageRank —
// and product(out, in) replaces out with inᵀA under ⟨+, first⟩. It takes
// over rank: it returns rank or one of its own work vectors and frees the
// other. A sweep's one deadline point is WaitContext(ctx) just before its
// first reduce, after the product is enqueued, so ctx bounds the flush that
// runs the product. At tol ≤ 0 only maxIter can end the loop, and the L1
// change is not computed.
func PowerIterate(ctx context.Context, rank, outdeg *core.Vector[float64], teleport []int, product func(out, in *core.Vector[float64]) error, damping, tol float64, maxIter int) (*core.Vector[float64], int, error) {
	n, err := rank.Size()
	if err != nil {
		return nil, 0, err
	}
	t := float64(len(teleport))
	if teleport == nil {
		t = float64(n)
	}
	plusMonoid := builtins.PlusMonoid[float64]()
	div := builtins.Div[float64]()
	first := builtins.First[float64]()
	plus := builtins.Plus[float64]()
	scale := core.UnaryOp[float64, float64]{Name: "damp", F: func(x float64) float64 { return damping * x }}

	// Work vectors, fully overwritten every sweep; next and rank trade places
	// at the end of one.
	var work [4]*core.Vector[float64]
	for i := range work {
		if work[i], err = core.NewVector[float64](n); err != nil {
			return nil, 0, err
		}
	}
	share, next, withEdges, diffV := work[0], work[1], work[2], work[3]

	iters := 0
	for ; iters < maxIter; iters++ {
		// The intersections with outdeg drop dangling vertices: share is
		// what each linked vertex sends, withEdges the rank it holds.
		if err := core.EWiseMultV(share, core.NoMaskV, core.NoAccum[float64](), div, rank, outdeg, core.Desc().ReplaceOutput()); err != nil {
			return nil, 0, err
		}
		if err := core.EWiseMultV(withEdges, core.NoMaskV, core.NoAccum[float64](), first, rank, outdeg, nil); err != nil {
			return nil, 0, err
		}
		if err := product(next, share); err != nil {
			return nil, 0, err
		}
		if err := core.WaitContext(ctx); err != nil {
			return nil, 0, err
		}
		// Dangling mass: total rank minus mass that has out-edges.
		total, err := core.ReduceVectorToScalar(0, core.NoAccum[float64](), plusMonoid, rank)
		if err != nil {
			return nil, 0, err
		}
		linked, err := core.ReduceVectorToScalar(0, core.NoAccum[float64](), plusMonoid, withEdges)
		if err != nil {
			return nil, 0, err
		}
		dangling := total - linked
		// The teleport term is accumulated over T, so absent entries get it.
		if err := core.ApplyV(next, core.NoMaskV, core.NoAccum[float64](), scale, next, nil); err != nil {
			return nil, 0, err
		}
		base := (1-damping)/t + damping*dangling/t
		if err := core.AssignVectorScalar(next, core.NoMaskV, plus, base, teleport, nil); err != nil {
			return nil, 0, err
		}
		// The L1 change is never negative: at tol ≤ 0 it cannot end the loop.
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
		rank, next = next, rank
		if converged {
			iters++
			break
		}
	}
	// Freeing forces the last sweep's pending ops, unless the loop ended on
	// the L1 test's forced read.
	if err := freeAll(share, next, withEdges, diffV); err != nil {
		return nil, 0, err
	}
	return rank, iters, nil
}
