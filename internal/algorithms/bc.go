// Package algorithms implements graph algorithms expressed in GraphBLAS
// primitives, headlined by the paper's Section VII batched betweenness
// centrality (Figure 3), plus the classic suite the GraphBLAS literature
// motivates: BFS (levels and parents), single-source shortest paths over
// the min-plus semiring, PageRank, masked-multiply triangle counting,
// label-propagation connected components, Luby's maximal independent set,
// and multi-source reachability over the power-set semiring.
//
// Every function is written against the public operation set only — no
// reaching into storage — so the package doubles as a workout of the API's
// expressiveness, exactly how the paper uses BC_update.
package algorithms

import (
	"graphblas/internal/builtins"
	"graphblas/internal/core"
)

// BCUpdate computes the batched Brandes betweenness-centrality updates of
// Figure 3: given the n×n unweighted adjacency matrix A (stored 1s of
// domain int32, as in the paper) and a batch s of source vertices, it
// returns the vector delta of BC contributions from shortest paths starting
// at those sources.
//
// The implementation is a line-for-line port of the paper's BC_update; the
// comments cite the corresponding Figure 3 lines. Where the C API performs
// implicit domain casts, this port uses explicit cast operators and
// mixed-domain semirings (the three-domain generality of Section III-B).
func BCUpdate(a *core.Matrix[int32], s []int) (*core.Vector[float32], error) {
	n, err := a.NRows() // line 6: n = # of vertices
	if err != nil {
		return nil, err
	}
	nsver := len(s)
	if nsver == 0 {
		return nil, &core.Error{Info: core.InvalidValue, Op: "BCUpdate", Msg: "empty source batch"}
	}

	delta, err := core.NewVector[float32](n) // line 7: Vector<float> delta(n)
	if err != nil {
		return nil, err
	}

	int32Add := builtins.PlusMonoid[int32]()   // lines 9-10: Monoid<int32,+,0>
	int32AddMul := builtins.PlusTimes[int32]() // lines 11-12: Semiring<int32,+,*,0>

	// lines 14-18: descriptor desc_tsr — transpose INP0, complement the
	// mask structurally, replace the output.
	descTSR := core.Desc().Transpose0().CompMask().ReplaceOutput()

	// lines 20-29: numsp holds discovered vertices and shortest-path counts;
	// numsp[s[i], i] = 1.
	iNsver := make([]int, nsver)
	ones := make([]int32, nsver)
	for i := 0; i < nsver; i++ {
		iNsver[i] = i
		ones[i] = 1
	}
	numsp, err := core.NewMatrix[int32](n, nsver)
	if err != nil {
		return nil, err
	}
	if err := numsp.Build(s, iNsver, ones, builtins.PlusINT32); err != nil {
		return nil, err
	}

	// lines 31-33: frontier initialized to the out-neighbors of each source,
	// via extract of Aᵀ columns s under the complemented numsp mask.
	frontier, err := core.NewMatrix[int32](n, nsver)
	if err != nil {
		return nil, err
	}
	if err := core.ExtractSubmatrix(frontier, numsp, core.NoAccum[int32](), a, core.All, s, descTSR); err != nil {
		return nil, err
	}

	// line 36: sigmas — one boolean frontier snapshot per BFS level; the
	// graph diameter (≤ n) bounds how many are needed.
	sigmas := make([]*core.Matrix[bool], 0, 8)

	d := int32(0) // line 37: BFS level
	// lines 39-46: the BFS phase (forward sweep).
	for {
		sigma, err := core.NewMatrix[bool](n, nsver) // line 40
		if err != nil {
			return nil, err
		}
		// line 41: sigmas[d] = (bool) frontier (GrB_IDENTITY_BOOL cast).
		if err := core.ApplyM(sigma, core.NoMask, core.NoAccum[bool](), builtins.CastToBool[int32](), frontier, nil); err != nil {
			return nil, err
		}
		sigmas = append(sigmas, sigma)
		// line 42: numsp += frontier (accumulate path counts).
		if err := core.EWiseAddMonoidM(numsp, core.NoMask, core.NoAccum[int32](), int32Add, numsp, frontier, nil); err != nil {
			return nil, err
		}
		// line 43: frontier<!numsp> = Aᵀ +.* frontier (expand and prune).
		if err := core.MxM(frontier, numsp, core.NoAccum[int32](), int32AddMul, a, frontier, descTSR); err != nil {
			return nil, err
		}
		// line 44: number of vertices in the new frontier.
		nvals, err := frontier.NVals()
		if err != nil {
			return nil, err
		}
		d++ // line 45
		if nvals == 0 {
			break // line 46
		}
	}

	fp32Add := builtins.PlusMonoid[float32]()   // lines 48-49
	fp32AddMul := builtins.PlusTimes[float32]() // lines 52-53
	_ = fp32AddMul

	// lines 55-57: nspinv = 1 ./ numsp. The C API's implicit int32→fp32
	// cast composed with GrB_MINV_FP32 becomes one explicit unary operator.
	nspinv, err := core.NewMatrix[float32](n, nsver)
	if err != nil {
		return nil, err
	}
	minvCast := core.UnaryOp[int32, float32]{Name: "minv_fp32∘cast", F: func(x int32) float32 { return 1 / float32(x) }}
	if err := core.ApplyM(nspinv, core.NoMask, core.NoAccum[float32](), minvCast, numsp, nil); err != nil {
		return nil, err
	}

	// lines 59-61: bcu filled with 1 to avoid sparsity issues.
	bcu, err := core.NewMatrix[float32](n, nsver)
	if err != nil {
		return nil, err
	}
	if err := core.AssignMatrixScalar(bcu, core.NoMask, core.NoAccum[float32](), 1, core.All, core.All, nil); err != nil {
		return nil, err
	}

	// lines 63-65: desc_r — replace output when a mask is used.
	descR := core.Desc().ReplaceOutput()

	// line 68: temporary workspace.
	w, err := core.NewMatrix[float32](n, nsver)
	if err != nil {
		return nil, err
	}

	// The A +.* w multiply of line 73 carries the C API's implicit
	// int32→fp32 cast of A's values; here it is the mixed-domain semiring
	// ⟨fp32, +, ⊗⟩ with ⊗ : int32 × fp32 → fp32.
	castMul := core.BinaryOp[int32, float32, float32]{Name: "times∘cast", F: func(x int32, y float32) float32 { return float32(x) * y }}
	fp32AddCastMul, err := core.NewSemiring(fp32Add, castMul)
	if err != nil {
		return nil, err
	}
	// The bcu += w .* numsp of line 74 likewise multiplies fp32 by int32.
	castMul2 := core.BinaryOp[float32, int32, float32]{Name: "times∘cast", F: func(x float32, y int32) float32 { return x * float32(y) }}

	// lines 69-75: the tally phase (backward sweep).
	for i := int(d) - 1; i > 0; i-- {
		// line 70: w<sigmas[i]> = bcu .* nspinv (replace).
		if err := core.EWiseMultM(w, sigmas[i], core.NoAccum[float32](), builtins.Times[float32](), bcu, nspinv, descR); err != nil {
			return nil, err
		}
		// line 73: w<sigmas[i-1]> = A +.* w (replace): contributions flow to
		// BFS-tree parents.
		if err := core.MxM(w, sigmas[i-1], core.NoAccum[float32](), fp32AddCastMul, a, w, descR); err != nil {
			return nil, err
		}
		// line 74: bcu += w .* numsp.
		if err := core.EWiseMultM(bcu, core.NoMask, builtins.PlusFP32, castMul2, w, numsp, nil); err != nil {
			return nil, err
		}
	}

	// line 77: delta = -nsver everywhere (each bcu entry carries a bias of
	// exactly 1 from the initial fill).
	if err := core.AssignVectorScalar(delta, core.NoMaskV, core.NoAccum[float32](), -float32(nsver), core.All, nil); err != nil {
		return nil, err
	}
	// line 78: delta += Σ_j bcu(:, j).
	if err := core.ReduceMatrixToVector(delta, core.NoMaskV, builtins.PlusFP32, fp32Add, bcu, nil); err != nil {
		return nil, err
	}

	// lines 80-82: free the work matrices (GrB_free), so their stores go
	// back to the pool. Free completes the pending sequence first, delta's
	// reduce included.
	for _, sigma := range sigmas {
		if err := sigma.Free(); err != nil {
			return nil, err
		}
	}
	if err := core.FreeAll(numsp, frontier, nspinv, bcu, w); err != nil {
		return nil, err
	}
	return delta, nil
}

// BCAll computes exact betweenness centrality for every vertex by running
// the Figure 3 batched BC_update over all sources, batchSize sources at a
// time, accumulating the per-batch deltas. This is the classic use of the
// batched formulation: the batch size trades memory (n × batch work
// matrices) against the number of sweeps.
func BCAll(a *core.Matrix[int32], batchSize int) (*core.Vector[float32], error) {
	n, err := a.NRows()
	if err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = 32
	}
	total, err := core.NewVector[float32](n)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		batch := make([]int, hi-lo)
		for i := range batch {
			batch[i] = lo + i
		}
		delta, err := BCUpdate(a, batch)
		if err != nil {
			return nil, err
		}
		if err := core.EWiseAddV(total, core.NoMaskV, core.NoAccum[float32](),
			builtins.Plus[float32](), total, delta, nil); err != nil {
			return nil, err
		}
	}
	return total, nil
}
