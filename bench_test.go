package graphblas_test

// The benchmark harness regenerating the per-table / per-figure experiments
// of EXPERIMENTS.md:
//
//	BenchmarkTableI_*     — the five semirings over one fixed matrix
//	BenchmarkTableII_*    — every fundamental operation
//	BenchmarkFig2_*       — masked vs unmasked mxm (Figure 2 semantics)
//	BenchmarkFig3_*       — batched BC vs classic Brandes (Figure 3)
//	BenchmarkExecMode_*   — blocking vs nonblocking engine (Section IV, E6)
//	BenchmarkE8_*         — algorithm suite vs direct baselines
//	BenchmarkAblation_*   — the DESIGN.md §4 design-choice ablations
//
// Run: go test -bench=. -benchmem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"graphblas"
	"graphblas/internal/algorithms"
	"graphblas/internal/core"
	"graphblas/internal/generate"
	"graphblas/internal/parallel"
	"graphblas/internal/refalgo"
	"graphblas/internal/sparse"
)

const (
	benchScale = 12
	benchEF    = 8
	benchSeed  = 42
)

type workload struct {
	g    *generate.Graph
	sym  *generate.Graph
	adj  *refalgo.Adjacency
	sadj *refalgo.Adjacency
	af   *graphblas.Matrix[float64]
	ab   *graphblas.Matrix[bool]
	ai   *graphblas.Matrix[int32]
	sb   *graphblas.Matrix[bool]
	csr  *sparse.CSR[float64]
	// frontier vectors at several densities (fraction of n).
	frontiers map[string]*graphblas.Vector[float64]
}

var (
	wlOnce sync.Once
	wl     *workload
)

func benchWorkload(b *testing.B) *workload {
	b.Helper()
	wlOnce.Do(func() {
		g := generate.RMAT(benchScale, benchEF, benchSeed).Dedup(true)
		sym := generate.RMAT(benchScale, benchEF, benchSeed).Symmetrize().Dedup(true)
		w := &workload{
			g:    g,
			sym:  sym,
			adj:  refalgo.NewAdjacency(g),
			sadj: refalgo.NewAdjacency(sym),
		}
		rows, cols, wts := g.Tuples()
		w.af, _ = graphblas.NewMatrix[float64](g.N, g.N)
		if err := w.af.Build(rows, cols, wts, graphblas.First[float64]()); err != nil {
			panic(err)
		}
		bv := make([]bool, len(rows))
		iv := make([]int32, len(rows))
		for i := range bv {
			bv[i] = true
			iv[i] = 1
		}
		w.ab, _ = graphblas.NewMatrix[bool](g.N, g.N)
		if err := w.ab.Build(rows, cols, bv, graphblas.LOr()); err != nil {
			panic(err)
		}
		w.ai, _ = graphblas.NewMatrix[int32](g.N, g.N)
		if err := w.ai.Build(rows, cols, iv, graphblas.First[int32]()); err != nil {
			panic(err)
		}
		srows, scols, _ := sym.Tuples()
		sv := make([]bool, len(srows))
		for i := range sv {
			sv[i] = true
		}
		w.sb, _ = graphblas.NewMatrix[bool](sym.N, sym.N)
		if err := w.sb.Build(srows, scols, sv, graphblas.LOr()); err != nil {
			panic(err)
		}
		var ok bool
		w.csr, ok = sparse.BuildCSR(g.N, g.N, rows, cols, wts, func(a, _ float64) float64 { return a })
		if !ok {
			panic("BuildCSR")
		}
		w.frontiers = map[string]*graphblas.Vector[float64]{}
		rng := generate.NewRNG(benchSeed + 9)
		for _, f := range []struct {
			name string
			frac int // one entry per frac vertices
		}{{"dense", 1}, {"p25", 4}, {"p03", 32}, {"sparse", 512}} {
			v, _ := graphblas.NewVector[float64](g.N)
			for i := 0; i < g.N/f.frac; i++ {
				_ = v.SetElement(1, rng.Intn(g.N))
			}
			w.frontiers[f.name] = v
		}
		if err := graphblas.Wait(); err != nil {
			panic(err)
		}
		wl = w
	})
	return wl
}

// --- Table I: one matrix, five semirings -------------------------------

func benchSemiringMxV(b *testing.B, s graphblas.Semiring[float64, float64, float64]) {
	w := benchWorkload(b)
	u := w.frontiers["p25"]
	out, _ := graphblas.NewVector[float64](w.g.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.MxV(out, graphblas.NoMaskV, graphblas.NoAccum[float64](), s, w.af, u, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI_Arithmetic(b *testing.B) { benchSemiringMxV(b, graphblas.PlusTimes[float64]()) }
func BenchmarkTableI_MaxPlus(b *testing.B)    { benchSemiringMxV(b, graphblas.MaxPlus[float64]()) }
func BenchmarkTableI_MinMax(b *testing.B)     { benchSemiringMxV(b, graphblas.MinMax[float64]()) }

func BenchmarkTableI_GF2(b *testing.B) {
	w := benchWorkload(b)
	u, _ := graphblas.NewVector[bool](w.g.N)
	rng := generate.NewRNG(1)
	for i := 0; i < w.g.N/4; i++ {
		_ = u.SetElement(true, rng.Intn(w.g.N))
	}
	out, _ := graphblas.NewVector[bool](w.g.N)
	s := graphblas.XorAnd()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.MxV(out, graphblas.NoMaskV, graphblas.NoAccum[bool](), s, w.ab, u, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableI_PowerSet(b *testing.B) {
	w := benchWorkload(b)
	const uni = 32
	full := graphblas.FullIntSet(uni)
	setA, _ := graphblas.NewMatrix[graphblas.IntSet](w.g.N, w.g.N)
	lift, _ := graphblas.NewUnaryOp("toU", func(bool) graphblas.IntSet { return full })
	if err := graphblas.ApplyM(setA, graphblas.NoMask, graphblas.NoAccum[graphblas.IntSet](), lift, w.ab, nil); err != nil {
		b.Fatal(err)
	}
	u, _ := graphblas.NewVector[graphblas.IntSet](w.g.N)
	rng := generate.NewRNG(2)
	for k := 0; k < uni; k++ {
		_ = u.SetElement(graphblas.IntSetOf(uni, k), rng.Intn(w.g.N))
	}
	out, _ := graphblas.NewVector[graphblas.IntSet](w.g.N)
	s := graphblas.UnionIntersect(uni)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.VxM(out, graphblas.NoMaskV, graphblas.NoAccum[graphblas.IntSet](), s, u, setA, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table II: every fundamental operation ------------------------------

func BenchmarkTableII_MxM(b *testing.B) {
	w := benchWorkload(b)
	c, _ := graphblas.NewMatrix[float64](w.g.N, w.g.N)
	s := graphblas.PlusTimes[float64]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.MxM(c, graphblas.NoMask, graphblas.NoAccum[float64](), s, w.af, w.af, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_MxV(b *testing.B) {
	w := benchWorkload(b)
	out, _ := graphblas.NewVector[float64](w.g.N)
	s := graphblas.PlusTimes[float64]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.MxV(out, graphblas.NoMaskV, graphblas.NoAccum[float64](), s, w.af, w.frontiers["p25"], nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_VxM(b *testing.B) {
	w := benchWorkload(b)
	out, _ := graphblas.NewVector[float64](w.g.N)
	s := graphblas.PlusTimes[float64]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.VxM(out, graphblas.NoMaskV, graphblas.NoAccum[float64](), s, w.frontiers["p25"], w.af, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_EWiseMult(b *testing.B) {
	w := benchWorkload(b)
	c, _ := graphblas.NewMatrix[float64](w.g.N, w.g.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.EWiseMultM(c, graphblas.NoMask, graphblas.NoAccum[float64](), graphblas.Times[float64](), w.af, w.af, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_EWiseAdd(b *testing.B) {
	w := benchWorkload(b)
	c, _ := graphblas.NewMatrix[float64](w.g.N, w.g.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.EWiseAddM(c, graphblas.NoMask, graphblas.NoAccum[float64](), graphblas.Plus[float64](), w.af, w.af, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_Reduce(b *testing.B) {
	w := benchWorkload(b)
	out, _ := graphblas.NewVector[float64](w.g.N)
	m := graphblas.PlusMonoid[float64]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.ReduceMatrixToVector(out, graphblas.NoMaskV, graphblas.NoAccum[float64](), m, w.af, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_Apply(b *testing.B) {
	w := benchWorkload(b)
	c, _ := graphblas.NewMatrix[float64](w.g.N, w.g.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.ApplyM(c, graphblas.NoMask, graphblas.NoAccum[float64](), graphblas.AInv[float64](), w.af, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_Transpose(b *testing.B) {
	w := benchWorkload(b)
	c, _ := graphblas.NewMatrix[float64](w.g.N, w.g.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Transpose caching would hide the kernel; alternate a mutation to
		// keep the transpose cold, matching a fresh-input regime.
		if err := graphblas.Transpose(c, graphblas.NoMask, graphblas.NoAccum[float64](), w.af, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_Extract(b *testing.B) {
	w := benchWorkload(b)
	half := make([]int, w.g.N/2)
	for i := range half {
		half[i] = 2 * i
	}
	c, _ := graphblas.NewMatrix[float64](len(half), len(half))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.ExtractSubmatrix(c, graphblas.NoMask, graphblas.NoAccum[float64](), w.af, half, half, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_Assign(b *testing.B) {
	w := benchWorkload(b)
	c, _ := graphblas.NewMatrix[float64](w.g.N, w.g.N)
	quarter := make([]int, w.g.N/4)
	for i := range quarter {
		quarter[i] = 4 * i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.AssignMatrixScalar(c, graphblas.NoMask, graphblas.NoAccum[float64](), 1, quarter, quarter, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 2: masked vs unmasked mxm ------------------------------------

func BenchmarkFig2_MxMUnmasked(b *testing.B) {
	w := benchWorkload(b)
	c, _ := graphblas.NewMatrix[float64](w.g.N, w.g.N)
	s := graphblas.PlusTimes[float64]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.MxM(c, graphblas.NoMask, graphblas.NoAccum[float64](), s, w.af, w.af, nil); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_MxMMasked(b *testing.B) {
	w := benchWorkload(b)
	c, _ := graphblas.NewMatrix[float64](w.g.N, w.g.N)
	s := graphblas.PlusTimes[float64]()
	d := graphblas.Desc().ReplaceOutput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graphblas.MxM(c, w.af, graphblas.NoAccum[float64](), s, w.af, w.af, d); err != nil {
			b.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: batched BC vs Brandes --------------------------------------

func BenchmarkFig3_BCGraphBLAS(b *testing.B) {
	w := benchWorkload(b)
	sources := generate.NewRNG(benchSeed + 1).Perm(w.g.N)[:16]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta, err := algorithms.BCUpdate(w.ai, sources)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := delta.ExtractTuples(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_BCBrandes(b *testing.B) {
	w := benchWorkload(b)
	sources := generate.NewRNG(benchSeed + 1).Perm(w.g.N)[:16]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = refalgo.BrandesBC(w.adj, sources)
	}
}

// --- Section IV: execution modes (E6) --------------------------------------

func benchOverwriteSequence(b *testing.B, elide bool) {
	w := benchWorkload(b)
	prev := core.SetElision(elide)
	defer core.SetElision(prev)
	s := graphblas.PlusTimes[float64]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := graphblas.NewMatrix[float64](w.g.N, w.g.N)
		for k := 0; k < 4; k++ {
			if err := graphblas.MxM(c, graphblas.NoMask, graphblas.NoAccum[float64](), s, w.af, w.af, nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := graphblas.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecMode_NonblockingElision(b *testing.B)   { benchOverwriteSequence(b, true) }
func BenchmarkExecMode_NonblockingNoElision(b *testing.B) { benchOverwriteSequence(b, false) }

// --- E8: algorithm suite vs baselines --------------------------------------

func BenchmarkE8_BFSGraphBLAS(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lv, err := algorithms.BFSLevels(w.ab, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := lv.ExtractTuples(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_BFSBaseline(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = refalgo.BFSLevels(w.adj, 0)
	}
}

func BenchmarkE8_SSSPGraphBLAS(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := algorithms.SSSP(w.af, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := d.ExtractTuples(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_SSSPBaseline(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = refalgo.Dijkstra(w.adj, 0)
	}
}

func BenchmarkE8_PageRankGraphBLAS(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _, err := algorithms.PageRank(w.af, 0.85, 1e-8, 100)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := r.ExtractTuples(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_PageRankBaseline(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = refalgo.PageRank(w.adj, 0.85, 1e-8, 100)
	}
}

func BenchmarkE8_TrianglesGraphBLAS(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algorithms.TriangleCount(w.sb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_TrianglesBaseline(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = refalgo.TriangleCount(w.sadj)
	}
}

func BenchmarkE8_ComponentsGraphBLAS(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := algorithms.ConnectedComponents(w.sb)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := l.ExtractTuples(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_ComponentsBaseline(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = refalgo.ConnectedComponents(w.sym)
	}
}

// --- DESIGN.md §4 ablations -------------------------------------------------

func BenchmarkAblation_SpGEMM_SPA(b *testing.B) {
	w := benchWorkload(b)
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sparse.SpGEMM(w.csr, w.csr, mul, add, nil)
	}
}

func BenchmarkAblation_MaskFusion_InKernel(b *testing.B) {
	w := benchWorkload(b)
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	mask := &sparse.MatMask{
		NCols:  w.g.N,
		EffPtr: w.csr.Ptr, EffIdx: w.csr.ColIdx,
		StrPtr: w.csr.Ptr, StrIdx: w.csr.ColIdx,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := sparse.SpGEMM(w.csr, w.csr, mul, add, mask)
		_ = sparse.MaskMergeCSR(w.csr, t, mask, true)
	}
}

func BenchmarkAblation_MaskFusion_PostHoc(b *testing.B) {
	w := benchWorkload(b)
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	mask := &sparse.MatMask{
		NCols:  w.g.N,
		EffPtr: w.csr.Ptr, EffIdx: w.csr.ColIdx,
		StrPtr: w.csr.Ptr, StrIdx: w.csr.ColIdx,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := sparse.SpGEMM(w.csr, w.csr, mul, add, nil) // full product
		_ = sparse.MaskMergeCSR(w.csr, t, mask, true)   // then filter
	}
}

// BenchmarkAblation_MaskedSpGEMM times the triangle kernel C⟨L⟩ = L ⊕.⊗ Lᵀ
// (L the strict lower triangle of the symmetrized RMAT graph) three ways:
// "slots" is sparse.SpGEMM on a prebuilt Lᵀ (the mask-shaped kernel alone),
// "transpose+slots" adds the transpose MxM pays when none is cached, "dot" is
// sparse.SpGEMMDotMasked on L as stored. Each reports the two sides of
// sparse.DotMaskedWins: Gustavson's flops and the dot kernel's steps.
func BenchmarkAblation_MaskedSpGEMM(b *testing.B) {
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	for _, scale := range []int{10, 12} {
		sym := generate.RMAT(scale, benchEF, benchSeed).Symmetrize().Dedup(true)
		var li, lj []int
		for _, e := range sym.Edges {
			if e.Dst < e.Src {
				li, lj = append(li, e.Src), append(lj, e.Dst)
			}
		}
		unit := make([]float64, len(li))
		for i := range unit {
			unit[i] = 1
		}
		l, ok := sparse.BuildCSR(sym.N, sym.N, li, lj, unit, nil)
		if !ok {
			b.Fatal("BuildCSR")
		}
		u := l.Transpose()
		mask := &sparse.MatMask{NCols: sym.N, EffPtr: l.Ptr, EffIdx: l.ColIdx, StrPtr: l.Ptr, StrIdx: l.ColIdx}
		flops, steps := 0, 0
		for _, k := range l.ColIdx {
			flops += u.Ptr[k+1] - u.Ptr[k]
			steps += l.Ptr[k+1] - l.Ptr[k]
		}
		scans := sparse.DotScans(l.NRows, l, mask)
		for _, v := range []struct {
			name string
			run  func()
		}{
			{"slots", func() { _ = sparse.SpGEMM(l, u, mul, add, mask) }},
			{"transpose+slots", func() { _ = sparse.SpGEMM(l, l.Transpose(), mul, add, mask) }},
			{"dot", func() {
				_ = sparse.Ring[float64, float64, float64]{Mul: mul, Add: add}.SpGEMMDotMasked(l, l, mask, scans)
			}},
		} {
			b.Run(fmt.Sprintf("scale=%d/%s", scale, v.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.run()
				}
				b.ReportMetric(float64(flops), "gustavson-flops")
				b.ReportMetric(float64(steps), "dot-steps")
			})
		}
	}
}

func BenchmarkAblation_Partition_NNZBalanced(b *testing.B) {
	w := benchWorkload(b)
	work := func(lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			for p := w.csr.Ptr[i]; p < w.csr.Ptr[i+1]; p++ {
				s += w.csr.Val[p]
			}
		}
		_ = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel.ForWeighted(w.csr.NRows, w.csr.Ptr, work)
	}
}

func BenchmarkAblation_Partition_EqualRows(b *testing.B) {
	w := benchWorkload(b)
	work := func(lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			for p := w.csr.Ptr[i]; p < w.csr.Ptr[i+1]; p++ {
				s += w.csr.Val[p]
			}
		}
		_ = s
	}
	rowsPerChunk := w.csr.NRows / parallel.MaxWorkers()
	if rowsPerChunk < 1 {
		rowsPerChunk = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel.For(w.csr.NRows, rowsPerChunk, work)
	}
}

func BenchmarkAblation_MxVDensity(b *testing.B) {
	w := benchWorkload(b)
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	tr := w.csr.Transpose()
	for _, density := range []string{"dense", "p25", "p03", "sparse"} {
		u := w.frontiers[density]
		idx, val, err := u.ExtractTuples()
		if err != nil {
			b.Fatal(err)
		}
		uv := &sparse.Vec[float64]{N: w.g.N, Idx: idx, Val: val}
		b.Run("dot_"+density, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = sparse.DotMxV(w.csr, uv, mul, add, nil)
			}
		})
		b.Run("push_"+density, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = sparse.PushMxV(tr, uv, mul, add, nil)
			}
		})
	}
}

// BenchmarkAblation_MxVCrossover is the table behind sparse.PullWins: the
// same product w = Aᵀ ⊕.⊗ u three ways — the scatter over A, the dot kernel
// over an Aᵀ already built, and the dot kernel paying for the build — on
// frontiers of random vertices whose rows hold a given share of the edges
// ("all" is every vertex, which the dot kernel reads as a dense array; 1_1
// is every vertex with an edge, PageRank's share vector). The m4 rows repeat
// push and pull under a mask admitting a random quarter of the targets,
// where the rule counts only the admitted rows of Aᵀ as pull work. The
// closure rows price a pull that tests u's presence per edge; the sec rows
// repeat push and pull under the predefined ⟨+, second⟩, whose pull folds a
// partial u with no presence test (personalized PageRank's product).
func BenchmarkAblation_MxVCrossover(b *testing.B) {
	w := benchWorkload(b)
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	sec := sparse.Ring[float64, float64, float64]{
		Mul: func(_, y float64) float64 { return y }, Add: add, MulOp: sparse.OpSecond, AddOp: sparse.OpPlus,
	}
	closure := sparse.Ring[float64, float64, float64]{Mul: mul, Add: add}
	a := w.csr
	at := a.Transpose()
	rng := generate.NewRNG(benchSeed + 11)
	order := rng.Perm(a.NRows)
	mask := &sparse.VecMask{N: a.NCols}
	for j := 0; j < a.NCols; j++ {
		if rng.Intn(4) == 0 {
			mask.Idx = append(mask.Idx, j)
		}
	}
	mask.Structure = mask.Idx
	run := func(name string, f func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f()
			}
		})
	}
	for _, share := range []struct{ num, den int }{{1, 16}, {1, 8}, {1, 4}, {1, 2}, {5, 8}, {3, 4}, {7, 8}, {1, 1}, {0, 0}} {
		in := make([]bool, a.NRows)
		for k, edges := 0, 0; k < len(order) && edges*share.den < a.NNZ()*share.num; k++ {
			d := a.Ptr[order[k]+1] - a.Ptr[order[k]]
			in[order[k]] = d > 0
			edges += d
		}
		name := fmt.Sprintf("%d_%d", share.num, share.den)
		if share.den == 0 {
			name = "all"
			for i := range in {
				in[i] = true
			}
		}
		u := sparse.FromDense(make([]float64, a.NRows), in)
		for i := range u.Val {
			u.Val[i] = 1 + float64(i%7)
		}
		b.Logf("%s: PullWins cached=%v uncached=%v masked=%v; ⟨+, second⟩ cached=%v uncached=%v", name,
			closure.PullWins(a.Ptr, u.Idx, at, nil), closure.PullWins(a.Ptr, u.Idx, nil, nil), closure.PullWins(a.Ptr, u.Idx, at, mask),
			sec.PullWins(a.Ptr, u.Idx, at, nil), sec.PullWins(a.Ptr, u.Idx, nil, nil))
		run("push_"+name, func() { _ = sparse.PushMxV(a, u, mul, add, nil) })
		run("pull_"+name, func() { _ = sparse.DotMxV(at, u, mul, add, nil) })
		run("pullbuild_"+name, func() { _ = sparse.DotMxV(a.Transpose(), u, mul, add, nil) })
		run("secpush_"+name, func() { _ = sec.PushMxV(a, u, nil) })
		run("secpull_"+name, func() { _ = sec.DotMxV(at, u, nil) })
		if share.den >= 2 {
			run("m4push_"+name, func() { _ = sparse.PushMxV(a, u, mul, add, mask) })
			run("m4pull_"+name, func() { _ = sparse.DotMxV(at, u, mul, add, mask) })
		}
	}
}

// BenchmarkAblation_SplitCrossover is the table behind parallel.SplitWork:
// three kernel families on RMAT scales 10–17 (edge factor 8, seed 1), each
// on one worker and on two workers forced to split whatever the size. The
// families are the pull (DotMxV over a full vector), the masked dot
// (SpGEMMDotMasked under ⟨+, pair⟩, the triangle kernel C⟨L⟩ = L·Lᵀ) and an
// EmitCSR merge (UnionCSR of A and Aᵀ), every one under its predefined
// operators. Each row reports the steps its kernel splits by — edges for
// the pull, scans for the masked dot, entries of A for the merge — so the
// first size from which two workers beat one on every family can be read
// off in the floor's unit. The push is not a family: it runs one pass at
// every size and worker count, because an order-keeping parallel scatter
// beat that pass by 7 % at most on two workers, at half a million edges
// and more (EXPERIMENTS.md E27, E28), so it has no split to measure. Run
// it at -cpu 2.
func BenchmarkAblation_SplitCrossover(b *testing.B) {
	plus := func(x, y float64) float64 { return x + y }
	ring := sparse.Ring[float64, float64, float64]{
		Mul: func(x, y float64) float64 { return x * y }, Add: plus, MulOp: sparse.OpTimes, AddOp: sparse.OpPlus,
	}
	pair := sparse.Ring[int64, int64, int64]{
		Mul: func(int64, int64) int64 { return 1 }, Add: func(x, y int64) int64 { return x + y }, MulOp: sparse.OpPair, AddOp: sparse.OpPlus,
	}
	for scale := 10; scale <= 17; scale++ {
		g := generate.RMAT(scale, benchEF, 1).Dedup(true)
		var is, js, li, lj []int
		for _, e := range g.Edges {
			is, js = append(is, e.Src), append(js, e.Dst)
		}
		for _, e := range generate.RMAT(scale, benchEF, 1).Symmetrize().Dedup(true).Edges {
			if e.Dst < e.Src {
				li, lj = append(li, e.Src), append(lj, e.Dst)
			}
		}
		a, ok := sparse.BuildCSR(g.N, g.N, is, js, make([]float64, len(is)), nil)
		l, ok2 := sparse.BuildCSR(g.N, g.N, li, lj, make([]int64, len(li)), nil)
		if !ok || !ok2 {
			b.Fatal("BuildCSR")
		}
		for k := range a.Val {
			a.Val[k] = 1 + float64(k%7)
		}
		at := a.Transpose()
		full := make([]bool, g.N)
		for k := range full {
			full[k] = true
		}
		u := sparse.FromDense(make([]float64, g.N), full)
		for k := range u.Val {
			u.Val[k] = 1 + float64(k%5)
		}
		mask := &sparse.MatMask{NCols: g.N, EffPtr: l.Ptr, EffIdx: l.ColIdx, StrPtr: l.Ptr, StrIdx: l.ColIdx}
		scans := sparse.DotScans(g.N, l, mask)
		for _, f := range []struct {
			name  string
			steps int
			run   func()
		}{
			{"pull", a.NNZ(), func() { ring.DotMxV(at, u, nil).Release() }},
			{"dotmasked", scans[g.N], func() { pair.SpGEMMDotMasked(l, l, mask, scans).Release() }},
			{"merge", a.NNZ(), func() { sparse.UnionCSR(a, at, plus, sparse.OpPlus).Release() }},
		} {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/scale=%d/workers=%d", f.name, scale, workers), func(b *testing.B) {
					parallel.SetMaxWorkersForTest(b, workers)
					parallel.SetSplitWorkForTest(b, 0)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						f.run()
					}
					b.ReportMetric(float64(f.steps), "steps")
				})
			}
		}
	}
}

// --- extended algorithm suite benches ---------------------------------------

// BenchmarkE8_BFSDirectionOptimizing is BenchmarkE8_BFSGraphBLAS on a copy
// of the matrix that a transposed read has left Aᵀ cached on: with it in
// hand the engine pulls the dense middle levels (sparse.PullWins), where the
// cold matrix of the other benchmark is pushed at every level.
func BenchmarkE8_BFSDirectionOptimizing(b *testing.B) {
	w := benchWorkload(b)
	ab, err := w.ab.Dup()
	if err != nil {
		b.Fatal(err)
	}
	abT, _ := graphblas.NewMatrix[bool](w.g.N, w.g.N)
	if err := graphblas.Transpose(abT, graphblas.NoMask, graphblas.NoAccum[bool](), ab, nil); err != nil {
		b.Fatal(err)
	}
	if err := graphblas.Wait(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lv, err := algorithms.BFSLevels(ab, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := lv.ExtractTuples(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_CoreNumbersGraphBLAS(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := algorithms.CoreNumbers(w.sb)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.ExtractTuples(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_CoreNumbersBaseline(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = refalgo.CoreNumbers(w.sadj)
	}
}

func BenchmarkE8_JaccardGraphBLAS(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := algorithms.Jaccard(w.sb)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.NVals(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_KTrussGraphBLAS(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := algorithms.KTruss(w.sb, 4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.NVals(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serialization path ------------------------------------------------------

func BenchmarkSerialize_Matrix(b *testing.B) {
	w := benchWorkload(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := graphblas.MatrixSerialize(w.af, &buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkSerialize_MatrixRoundTrip(b *testing.B) {
	w := benchWorkload(b)
	var buf bytes.Buffer
	if err := graphblas.MatrixSerialize(w.af, &buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphblas.MatrixDeserialize[float64](bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSetElementPendingTuples(b *testing.B) {
	// 50k random point updates into a large matrix: the pending-tuple buffer
	// makes this O(k log k + nnz) total instead of O(k·nnz).
	const n = 20000
	rng := generate.NewRNG(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := graphblas.NewMatrix[float64](n, n)
		for k := 0; k < 50000; k++ {
			_ = m.SetElement(1, rng.Intn(n), rng.Intn(n))
		}
		if _, err := m.NVals(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_ColoringGraphBLAS(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := algorithms.GreedyColor(w.sb, 17); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fill sweep (DESIGN.md §5) ------------------------------------------
//
// Sweeps mxv and mxm across fill ratios from hypersparse (1e-5) to half
// dense (0.5). A matrix is stored CSR at every fill; the sweep is the
// standing evidence for the dense ⟨+,×⟩ product's 4 % rule: below it mxm
// runs Gustavson's kernel, from it the dense product. Run with:
//
//	go test -run=NONE -bench=BenchmarkFillSweep -benchtime=200ms -cpu 1 .

var fillSweepFills = []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.5}

// sweepMatrix builds an n×n float64 matrix with each cell present
// independently with probability fill, deterministic in (n, fill).
func sweepMatrix(b *testing.B, n int, fill float64) *graphblas.Matrix[float64] {
	b.Helper()
	rng := generate.NewRNG(uint64(benchSeed) ^ uint64(fill*1e9) ^ uint64(n))
	var rows, cols []int
	var vals []float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < fill {
				rows = append(rows, i)
				cols = append(cols, j)
				vals = append(vals, 1+rng.Float64())
			}
		}
	}
	if len(rows) == 0 { // keep degenerate fills non-empty
		rows, cols, vals = []int{0}, []int{0}, []float64{1}
	}
	m, _ := graphblas.NewMatrix[float64](n, n)
	if err := m.Build(rows, cols, vals, graphblas.NoAccum[float64]()); err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkFillSweep_MxV(b *testing.B) {
	const n = 1024
	s := graphblas.PlusTimes[float64]()
	for _, fill := range fillSweepFills {
		a := sweepMatrix(b, n, fill)
		u, _ := graphblas.NewVector[float64](n)
		rng := generate.NewRNG(benchSeed + 7)
		for i := 0; i < n; i++ {
			_ = u.SetElement(1+rng.Float64(), i)
		}
		out, _ := graphblas.NewVector[float64](n)
		b.Run(fmt.Sprintf("fill=%g", fill), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := graphblas.MxV(out, graphblas.NoMaskV, graphblas.NoAccum[float64](), s, a, u, nil); err != nil {
					b.Fatal(err)
				}
				if err := graphblas.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFillSweep_MxM(b *testing.B) {
	const n = 512
	s := graphblas.PlusTimes[float64]()
	for _, fill := range fillSweepFills {
		a := sweepMatrix(b, n, fill)
		m2 := sweepMatrix(b, n, fill)
		out, _ := graphblas.NewMatrix[float64](n, n)
		b.Run(fmt.Sprintf("fill=%g", fill), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := graphblas.MxM(out, graphblas.NoMask, graphblas.NoAccum[float64](), s, a, m2, nil); err != nil {
					b.Fatal(err)
				}
				if err := graphblas.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
