package algorithms

import (
	"graphblas/internal/builtins"
	"graphblas/internal/core"
)

// Structural decompositions expressed in GraphBLAS primitives. All expect a
// symmetric, loop-free boolean adjacency matrix.

// CoreNumbers computes the coreness of every vertex (the largest k such
// that the vertex survives k-core peeling) by incremental GraphBLAS
// peeling: each round removes vertices of degree < k, decrements their
// neighbors' degrees with one vxm, and records coreness k-1.
func CoreNumbers(a *core.Matrix[bool]) (*core.Vector[int64], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	// ones(A) for degree counting.
	ones, err := core.NewMatrix[int64](n, n)
	if err != nil {
		return nil, err
	}
	if err := core.ApplyM(ones, core.NoMask, core.NoAccum[int64](), builtins.CastBoolTo[int64](), a, nil); err != nil {
		return nil, err
	}
	// deg: every vertex gets an entry (0 for isolated), then row sums.
	deg, err := core.NewVector[int64](n)
	if err != nil {
		return nil, err
	}
	if err := core.AssignVectorScalar(deg, core.NoMaskV, core.NoAccum[int64](), 0, core.All, nil); err != nil {
		return nil, err
	}
	if err := core.ReduceMatrixToVector(deg, core.NoMaskV, builtins.Plus[int64](), builtins.PlusMonoid[int64](), ones, nil); err != nil {
		return nil, err
	}
	coreness, err := core.NewVector[int64](n)
	if err != nil {
		return nil, err
	}
	if err := core.AssignVectorScalar(coreness, core.NoMaskV, core.NoAccum[int64](), 0, core.All, nil); err != nil {
		return nil, err
	}
	toTrue := core.UnaryOp[int64, bool]{Name: "true", F: func(int64) bool { return true }}
	toOne := core.UnaryOp[int64, int64]{Name: "one", F: func(int64) int64 { return 1 }}
	plusCarry, err := core.NewSemiring(builtins.PlusMonoid[int64](), firstInt64)
	if err != nil {
		return nil, err
	}
	compReplace := core.Desc().CompMask().ReplaceOutput()
	for k := int64(1); ; k++ {
		remaining, err := deg.NVals()
		if err != nil {
			return nil, err
		}
		if remaining == 0 {
			break
		}
		for {
			// peel = alive vertices with degree < k.
			lessK := core.IndexUnaryOp[int64, bool]{Name: "ltk", F: func(v int64, _, _ int) bool { return v < k }}
			peel, err := core.NewVector[int64](n)
			if err != nil {
				return nil, err
			}
			if err := core.SelectV(peel, core.NoMaskV, core.NoAccum[int64](), lessK, deg, nil); err != nil {
				return nil, err
			}
			np, err := peel.NVals()
			if err != nil {
				return nil, err
			}
			if np == 0 {
				break
			}
			// Boolean indicator of the peeled set (peel values may be 0, so
			// an explicit cast to true is required for mask use).
			peelInd, err := core.NewVector[bool](n)
			if err != nil {
				return nil, err
			}
			if err := core.ApplyV(peelInd, core.NoMaskV, core.NoAccum[bool](), toTrue, peel, nil); err != nil {
				return nil, err
			}
			// coreness<peel> = k-1.
			if err := core.AssignVectorScalar(coreness, peelInd, core.NoAccum[int64](), k-1, core.All, nil); err != nil {
				return nil, err
			}
			// delta(j) = number of peeled neighbors of j.
			peelOnes, err := core.NewVector[int64](n)
			if err != nil {
				return nil, err
			}
			if err := core.ApplyV(peelOnes, core.NoMaskV, core.NoAccum[int64](), toOne, peel, nil); err != nil {
				return nil, err
			}
			delta, err := core.NewVector[int64](n)
			if err != nil {
				return nil, err
			}
			if err := core.VxM(delta, core.NoMaskV, core.NoAccum[int64](), plusCarry, peelOnes, ones, nil); err != nil {
				return nil, err
			}
			// deg -= delta on the intersection (only alive entries change).
			dec, err := core.NewVector[int64](n)
			if err != nil {
				return nil, err
			}
			if err := core.EWiseMultV(dec, core.NoMaskV, core.NoAccum[int64](), builtins.Minus[int64](), deg, delta, nil); err != nil {
				return nil, err
			}
			if err := core.AssignVector(deg, delta, core.NoAccum[int64](), dec, core.All, nil); err != nil {
				return nil, err
			}
			// Remove the peeled vertices from deg (they are no longer alive).
			if err := core.ApplyV(deg, peelInd, core.NoAccum[int64](), builtins.Identity[int64](), deg, compReplace); err != nil {
				return nil, err
			}
		}
	}
	// deg.NVals forced the sequence: freeing ones adds no flush.
	if err := ones.Free(); err != nil {
		return nil, err
	}
	return coreness, nil
}

// KTruss computes the k-truss of the graph: the maximal subgraph in which
// every edge supports at least k-2 triangles, by the masked-multiply
// peeling C⟨C⟩ = C +.× C; keep edges with support ≥ k-2; repeat. The
// returned matrix holds each surviving edge with its triangle support.
func KTruss(a *core.Matrix[bool], k int) (*core.Matrix[int64], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	c, err := core.NewMatrix[int64](n, n)
	if err != nil {
		return nil, err
	}
	if err := core.ApplyM(c, core.NoMask, core.NoAccum[int64](), builtins.CastBoolTo[int64](), a, nil); err != nil {
		return nil, err
	}
	plusTimes := builtins.PlusTimes[int64]()
	replace := core.Desc().ReplaceOutput()
	support := core.IndexUnaryOp[int64, bool]{Name: "support", F: func(v int64, _, _ int) bool { return v >= int64(k-2) }}
	toOne := core.UnaryOp[int64, int64]{Name: "one", F: func(int64) int64 { return 1 }}
	last, err := c.NVals()
	if err != nil {
		return nil, err
	}
	// prev is the last round's keep, which c was made from. Each round's
	// keep.NVals forces the sequence, so the frees below add no flush.
	var prev *core.Matrix[int64]
	for iter := 0; iter <= n*n; iter++ {
		// s⟨C⟩ = C +.× C — per-edge wedge (triangle) counts.
		s, err := core.NewMatrix[int64](n, n)
		if err != nil {
			return nil, err
		}
		if err := core.MxM(s, c, core.NoAccum[int64](), plusTimes, c, c, replace); err != nil {
			return nil, err
		}
		// keep edges with enough support (values = support counts).
		keep, err := core.NewMatrix[int64](n, n)
		if err != nil {
			return nil, err
		}
		if err := core.SelectM(keep, core.NoMask, core.NoAccum[int64](), support, s, nil); err != nil {
			return nil, err
		}
		nv, err := keep.NVals()
		if err != nil {
			return nil, err
		}
		if err := freeAll(s, prev); err != nil {
			return nil, err
		}
		if nv == last || nv == 0 {
			if err := c.Free(); err != nil {
				return nil, err
			}
			return keep, nil
		}
		last = nv
		// c = pattern(keep) as ones for the next round.
		if err := core.ApplyM(c, core.NoMask, core.NoAccum[int64](), toOne, keep, nil); err != nil {
			return nil, err
		}
		prev = keep
	}
	if err := prev.Free(); err != nil {
		return nil, err
	}
	return c, nil
}

// ClusteringCoefficients computes the local clustering coefficient of every
// vertex: cc(v) = 2·tri(v) / (deg(v)·(deg(v)-1)). One masked multiply gives
// per-edge common-neighbor counts; its row sums are 2·tri(v).
func ClusteringCoefficients(a *core.Matrix[bool]) (*core.Vector[float64], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	ones, err := core.NewMatrix[float64](n, n)
	if err != nil {
		return nil, err
	}
	if err := core.ApplyM(ones, core.NoMask, core.NoAccum[float64](), builtins.CastBoolTo[float64](), a, nil); err != nil {
		return nil, err
	}
	// wedges⟨A⟩ = A +.× A : common neighbors per adjacent pair.
	wedges, err := core.NewMatrix[float64](n, n)
	if err != nil {
		return nil, err
	}
	if err := core.MxM(wedges, a, core.NoAccum[float64](), builtins.PlusTimes[float64](), ones, ones, core.Desc().ReplaceOutput()); err != nil {
		return nil, err
	}
	// tri2(v) = Σ_j wedges(v, j) = 2·tri(v).
	tri2, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	if err := core.ReduceMatrixToVector(tri2, core.NoMaskV, core.NoAccum[float64](), builtins.PlusMonoid[float64](), wedges, nil); err != nil {
		return nil, err
	}
	// deg(v).
	deg, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	if err := core.ReduceMatrixToVector(deg, core.NoMaskV, core.NoAccum[float64](), builtins.PlusMonoid[float64](), ones, nil); err != nil {
		return nil, err
	}
	// cc = tri2 / (deg·(deg-1)) on the intersection; vertices with deg < 2
	// produce no triangles, hence no tri2 entry, hence no cc entry — fill
	// explicit zeros for all vertices first so the result is total.
	cc, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	if err := core.AssignVectorScalar(cc, core.NoMaskV, core.NoAccum[float64](), 0, core.All, nil); err != nil {
		return nil, err
	}
	pairs := core.UnaryOp[float64, float64]{Name: "choose2", F: func(d float64) float64 { return d * (d - 1) }}
	denom, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	if err := core.ApplyV(denom, core.NoMaskV, core.NoAccum[float64](), pairs, deg, nil); err != nil {
		return nil, err
	}
	frac, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	if err := core.EWiseMultV(frac, core.NoMaskV, core.NoAccum[float64](), builtins.Div[float64](), tri2, denom, nil); err != nil {
		return nil, err
	}
	// cc⟨frac⟩ = frac (merge over the zero fill). frac values can be 0 only
	// if tri2 is 0, which cannot be stored (reduce of positive counts), so
	// truthiness is safe here.
	if err := core.AssignVector(cc, frac, core.NoAccum[float64](), frac, core.All, nil); err != nil {
		return nil, err
	}
	// Free completes the sequence, cc's assign included, and gives the two
	// matrices' stores back to the pool.
	if err := freeAll(ones, wedges); err != nil {
		return nil, err
	}
	return cc, nil
}
