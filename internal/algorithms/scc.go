package algorithms

import (
	"graphblas/internal/builtins"
	"graphblas/internal/core"
)

// SCC labels the strongly connected components of a directed graph by the
// forward-backward-trim method expressed in GraphBLAS primitives: the trim
// phase peels vertices with no unassigned in- or out-neighbors (which are
// necessarily singleton components — the overwhelming majority in skewed
// digraphs); the FW-BW phase then repeatedly picks the smallest unassigned
// vertex as pivot, computes its forward and backward reachable sets within
// the unassigned region (masked BFS over A and Aᵀ), and labels their
// intersection. Each component's label is its smallest member (processing
// pivots in increasing order guarantees the pivot is that minimum; trimmed
// singletons are their own minimum).
func SCC(a *core.Matrix[bool]) (*core.Vector[int64], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	at, err := core.NewMatrix[bool](n, n)
	if err != nil {
		return nil, err
	}
	if err := core.Transpose(at, core.NoMask, core.NoAccum[bool](), a, nil); err != nil {
		return nil, err
	}
	labels, err := core.NewVector[int64](n)
	if err != nil {
		return nil, err
	}
	unassigned, err := core.NewVector[bool](n)
	if err != nil {
		return nil, err
	}
	if err := core.AssignVectorScalar(unassigned, core.NoMaskV, core.NoAccum[bool](), true, core.All, nil); err != nil {
		return nil, err
	}
	compReplace := core.Desc().CompMask().ReplaceOutput()
	replace := core.Desc().ReplaceOutput()

	// ids(i) = i, used to label trimmed singletons in bulk.
	ids, err := core.NewVector[int64](n)
	if err != nil {
		return nil, err
	}
	if err := core.AssignVectorScalar(ids, core.NoMaskV, core.NoAccum[int64](), 0, core.All, nil); err != nil {
		return nil, err
	}
	rowid := core.IndexUnaryOp[int64, int64]{Name: "rowid", F: func(_ int64, i, _ int) int64 { return int64(i) }}
	if err := core.ApplyIndexOpV(ids, core.NoMaskV, core.NoAccum[int64](), rowid, ids, nil); err != nil {
		return nil, err
	}
	lorCarry, err := core.NewSemiring(builtins.LOrMonoid(), builtins.LAnd())
	if err != nil {
		return nil, err
	}

	// trim peels singleton components until a fixed point.
	trim := func() error {
		for {
			// outAlive(i): i has an unassigned out-neighbor (restricted to
			// unassigned rows by the mask). The frontier is the unassigned
			// indicator itself.
			outAlive, err := core.NewVector[bool](n)
			if err != nil {
				return err
			}
			if err := core.MxV(outAlive, unassigned, core.NoAccum[bool](), lorCarry, a, unassigned, replace); err != nil {
				return err
			}
			inAlive, err := core.NewVector[bool](n)
			if err != nil {
				return err
			}
			if err := core.MxV(inAlive, unassigned, core.NoAccum[bool](), lorCarry, at, unassigned, replace); err != nil {
				return err
			}
			// Vertices alive in both directions can be in nontrivial SCCs.
			both, err := core.NewVector[bool](n)
			if err != nil {
				return err
			}
			if err := core.EWiseMultV(both, core.NoMaskV, core.NoAccum[bool](), builtins.LAnd(), outAlive, inAlive, nil); err != nil {
				return err
			}
			// singles = unassigned \ both.
			singles, err := core.NewVector[bool](n)
			if err != nil {
				return err
			}
			if err := core.ApplyV(singles, both, core.NoAccum[bool](), builtins.Identity[bool](), unassigned, compReplace); err != nil {
				return err
			}
			ns, err := singles.NVals()
			if err != nil {
				return err
			}
			if ns == 0 {
				return nil
			}
			// labels<singles> = own ids; unassigned -= singles.
			if err := core.AssignVector(labels, singles, core.NoAccum[int64](), ids, core.All, nil); err != nil {
				return err
			}
			keep, err := unassigned.Dup()
			if err != nil {
				return err
			}
			if err := core.ApplyV(unassigned, singles, core.NoAccum[bool](), builtins.Identity[bool](), keep, compReplace); err != nil {
				return err
			}
		}
	}
	for {
		if err := trim(); err != nil {
			return nil, err
		}
		// Pivot: the smallest unassigned vertex.
		uIdx, _, err := unassigned.ExtractTuples()
		if err != nil {
			return nil, err
		}
		if len(uIdx) == 0 {
			break
		}
		pivot := uIdx[0]
		fwd, err := reachableWithin(a, pivot, unassigned)
		if err != nil {
			return nil, err
		}
		bwd, err := reachableWithin(at, pivot, unassigned)
		if err != nil {
			return nil, err
		}
		// scc = fwd ∧ bwd (always contains the pivot).
		scc, err := core.NewVector[bool](n)
		if err != nil {
			return nil, err
		}
		if err := core.EWiseMultV(scc, core.NoMaskV, core.NoAccum[bool](), builtins.LAnd(), fwd, bwd, nil); err != nil {
			return nil, err
		}
		// labels<scc> = pivot.
		if err := core.AssignVectorScalar(labels, scc, core.NoAccum[int64](), int64(pivot), core.All, nil); err != nil {
			return nil, err
		}
		// unassigned -= scc.
		keep, err := unassigned.Dup()
		if err != nil {
			return nil, err
		}
		if err := core.ApplyV(unassigned, scc, core.NoAccum[bool](), builtins.Identity[bool](), keep, compReplace); err != nil {
			return nil, err
		}
	}
	// The extract that ended the loop forced the sequence: freeing the
	// transpose adds no flush.
	if err := at.Free(); err != nil {
		return nil, err
	}
	return labels, nil
}

// reachableWithin computes the set of vertices reachable from pivot in the
// subgraph induced by the allowed set (which must contain the pivot), as a
// boolean vector with all-true values.
func reachableWithin(a *core.Matrix[bool], pivot int, allowed *core.Vector[bool]) (*core.Vector[bool], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	reach, err := core.NewVector[bool](n)
	if err != nil {
		return nil, err
	}
	if err := reach.SetElement(true, pivot); err != nil {
		return nil, err
	}
	frontier, err := reach.Dup()
	if err != nil {
		return nil, err
	}
	lorLand := builtins.LorLand()
	compReplace := core.Desc().CompMask().ReplaceOutput()
	replace := core.Desc().ReplaceOutput()
	for {
		// frontier<!reach> = frontier ∨.∧ A.
		if err := core.VxM(frontier, reach, core.NoAccum[bool](), lorLand, frontier, a, compReplace); err != nil {
			return nil, err
		}
		// Restrict to the allowed region.
		if err := core.EWiseMultV(frontier, core.NoMaskV, core.NoAccum[bool](), builtins.LAnd(), frontier, allowed, replace); err != nil {
			return nil, err
		}
		nv, err := frontier.NVals()
		if err != nil {
			return nil, err
		}
		if nv == 0 {
			return reach, nil
		}
		// reach ∨= frontier.
		if err := core.AssignVectorScalar(reach, frontier, core.NoAccum[bool](), true, core.All, nil); err != nil {
			return nil, err
		}
	}
}

// APSP computes all-pairs shortest-path distances over the min-plus
// semiring by repeated squaring of the distance matrix: D₁ = A min I·0,
// D₂ₖ = Dₖ min.+ Dₖ, converging in ⌈log₂ n⌉ rounds. The result stores an
// entry for every ordered reachable pair (including the zero diagonal);
// dense outputs cost Θ(n²) memory, so this is a small-graph algorithm by
// design — exactly how the semiring textbooks present it.
func APSP(a *core.Matrix[float64]) (*core.Matrix[float64], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	d, err := a.Dup()
	if err != nil {
		return nil, err
	}
	// Zero diagonal: d(i,i) = 0 (paths of length 0), overwriting any
	// self-loop weights, which cannot improve a shortest path when
	// nonnegative.
	zeros, err := core.NewVector[float64](n)
	if err != nil {
		return nil, err
	}
	if err := core.AssignVectorScalar(zeros, core.NoMaskV, core.NoAccum[float64](), 0, core.All, nil); err != nil {
		return nil, err
	}
	diag, err := core.Diag(zeros, 0)
	if err != nil {
		return nil, err
	}
	if err := core.EWiseAddM(d, core.NoMask, core.NoAccum[float64](), builtins.Min[float64](), d, diag, nil); err != nil {
		return nil, err
	}
	minPlus := builtins.MinPlus[float64]()
	minOp := builtins.Min[float64]()
	for span := 1; span < n; span *= 2 {
		// d ⊙min= d min.+ d.
		if err := core.MxM(d, core.NoMask, minOp, minPlus, d, d, nil); err != nil {
			return nil, err
		}
	}
	// Free completes the sequence, the squarings included, and gives the
	// diagonal's store and the zero vector's back to the pool.
	if err := freeAll(diag, zeros); err != nil {
		return nil, err
	}
	return d, nil
}
