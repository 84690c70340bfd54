package main

import (
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"graphblas"
	"graphblas/internal/algorithms"
	"graphblas/internal/builtins"
	"graphblas/internal/core"
	"graphblas/internal/generate"
	"graphblas/internal/refalgo"
)

// buildAdjacencies materializes the standard workload in the three domains
// the experiments need.
func buildAdjacencies(g *generate.Graph) (*graphblas.Matrix[float64], *graphblas.Matrix[bool], *graphblas.Matrix[int32]) {
	rows, cols, w := g.Tuples()
	af, err := graphblas.NewMatrix[float64](g.N, g.N)
	if err != nil {
		log.Fatal(err)
	}
	if err := af.Build(rows, cols, w, graphblas.First[float64]()); err != nil {
		log.Fatal(err)
	}
	ab, err := graphblas.NewMatrix[bool](g.N, g.N)
	if err != nil {
		log.Fatal(err)
	}
	bvals := make([]bool, len(rows))
	for i := range bvals {
		bvals[i] = true
	}
	if err := ab.Build(rows, cols, bvals, graphblas.LOr()); err != nil {
		log.Fatal(err)
	}
	ai, err := graphblas.NewMatrix[int32](g.N, g.N)
	if err != nil {
		log.Fatal(err)
	}
	ivals := make([]int32, len(rows))
	for i := range ivals {
		ivals[i] = 1
	}
	if err := ai.Build(rows, cols, ivals, graphblas.First[int32]()); err != nil {
		log.Fatal(err)
	}
	return af, ab, ai
}

// timeIt reports the best of three runs of f (after a GC barrier, so one
// section's garbage does not bill the next), aborting on error. Best-of-N
// is the right summary for a single-shot experiment table; the Go benchmark
// harness (bench_test.go) provides the statistically grounded numbers.
func timeIt(f func() error) time.Duration {
	best := time.Duration(0)
	for run := 0; run < 3; run++ {
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			log.Fatal(err)
		}
		if d := time.Since(start); run == 0 || d < best {
			best = d
		}
	}
	return best
}

// runE1 demonstrates Table I: one fixed 6-vertex matrix multiplied under
// each of the five semirings, with the algebraic laws spot-checked.
func runE1(_, _ int, _ uint64) {
	header("E1", "Table I: five semirings over one stored matrix")
	// The semirings example holds the narrative version; here we verify the
	// five results against hand-computed expectations on the flight graph.
	const n = 6
	rows := []int{0, 0, 1, 1, 2, 3, 4, 4, 5}
	cols := []int{1, 4, 2, 3, 3, 5, 2, 5, 3}
	fare := []float64{99, 150, 80, 210, 65, 120, 70, 95, 60}

	af, _ := graphblas.NewMatrix[float64](n, n)
	if err := af.Build(rows, cols, fare, graphblas.NoAccum[float64]()); err != nil {
		log.Fatal(err)
	}
	// The seed value is the semiring's "neutral start": 1 for products, 0
	// for tropical sums (min-plus path lengths and min-max leg maxima).
	twoHop := func(s graphblas.Semiring[float64, float64, float64], seedVal float64) map[int]float64 {
		v, _ := graphblas.NewVector[float64](n)
		_ = v.SetElement(seedVal, 0)
		for hop := 0; hop < 2; hop++ {
			if err := graphblas.VxM(v, graphblas.NoMaskV, graphblas.NoAccum[float64](), s, v, af, nil); err != nil {
				log.Fatal(err)
			}
		}
		idx, val, _ := v.ExtractTuples()
		out := map[int]float64{}
		for k := range idx {
			out[idx[k]] = val[k]
		}
		return out
	}
	check := func(name string, got, want map[int]float64) {
		ok := len(got) == len(want)
		for k, v := range want {
			if got[k] != v {
				ok = false
			}
		}
		fmt.Printf("  %-28s %-44s %s\n", name, fmt.Sprint(got), map[bool]string{true: "✓", false: "✗ want " + fmt.Sprint(want)}[ok])
	}
	// 2-hop paths from SFO: 0→1→2 (99,80), 0→1→3 (99,210), 0→4→2 (150,70),
	// 0→4→5 (150,95).
	check("arithmetic ⟨+,×⟩", twoHop(graphblas.PlusTimes[float64](), 1),
		map[int]float64{2: 99*80 + 150*70, 3: 99 * 210, 5: 150 * 95})
	check("tropical ⟨min,+⟩", twoHop(graphblas.MinPlus[float64](), 0),
		map[int]float64{2: 179, 3: 309, 5: 245})
	check("min-max ⟨min,max⟩", twoHop(graphblas.MinMax[float64](), 0),
		map[int]float64{2: 99, 3: 210, 5: 150})
	// GF(2) and power-set over the pattern.
	ab, _ := graphblas.NewMatrix[bool](n, n)
	if err := graphblas.ApplyM(ab, graphblas.NoMask, graphblas.NoAccum[bool](), graphblas.CastToBool[float64](), af, nil); err != nil {
		log.Fatal(err)
	}
	par, _ := graphblas.NewVector[bool](n)
	_ = par.SetElement(true, 0)
	for hop := 0; hop < 2; hop++ {
		if err := graphblas.VxM(par, graphblas.NoMaskV, graphblas.NoAccum[bool](), graphblas.XorAnd(), par, ab, nil); err != nil {
			log.Fatal(err)
		}
	}
	pi, pv, _ := par.ExtractTuples()
	gotPar := map[int]bool{}
	for k := range pi {
		gotPar[pi[k]] = pv[k]
	}
	// SFO 2-hop route counts: ORD 1 (via DEN... none) — computed by hand:
	// routes: 0→1→2, 0→1→3, 0→4→2, 0→4→5 → counts ORD:2 JFK:1 MIA:1.
	wantPar := map[int]bool{2: false, 3: true, 5: true}
	okPar := len(gotPar) == len(wantPar)
	for k, v := range wantPar {
		if gotPar[k] != v {
			okPar = false
		}
	}
	fmt.Printf("  %-28s %-44s %s\n", "GF(2) ⟨xor,and⟩ parity", fmt.Sprint(gotPar), map[bool]string{true: "✓", false: "✗"}[okPar])

	labels, err := algorithms.Reach(ab, []int{0, 2, 5})
	if err != nil {
		log.Fatal(err)
	}
	li, lv, _ := labels.ExtractTuples()
	gotReach := map[int]string{}
	for k := range li {
		gotReach[li[k]] = lv[k].String()
	}
	wantReach := map[int]string{0: "{0}", 1: "{0}", 2: "{0,1}", 3: "{0,1,2}", 4: "{0}", 5: "{0,1,2}"}
	okReach := len(gotReach) == len(wantReach)
	for k, v := range wantReach {
		if gotReach[k] != v {
			okReach = false
		}
	}
	fmt.Printf("  %-28s %-44s %s\n", "power set ⟨∪,∩⟩ reach", fmt.Sprint(gotReach), map[bool]string{true: "✓", false: "✗"}[okReach])
}

// runE2 times every Table II operation on the standard RMAT workload.
func runE2(scale, ef int, seed uint64) {
	header("E2", fmt.Sprintf("Table II: operation timings on RMAT scale %d (ef %d)", scale, ef))
	g := generate.RMAT(scale, ef, seed).Dedup(true)
	af, ab, _ := buildAdjacencies(g)
	n := g.N
	fmt.Printf("  workload: %d vertices, %d edges\n", n, len(g.Edges))
	pt := graphblas.PlusTimes[float64]()

	frontier, _ := graphblas.NewVector[float64](n)
	rng := generate.NewRNG(seed)
	for k := 0; k < n/16; k++ {
		_ = frontier.SetElement(1, rng.Intn(n))
	}
	c, _ := graphblas.NewMatrix[float64](n, n)
	w, _ := graphblas.NewVector[float64](n)
	_ = ab

	report := func(name string, d time.Duration, extra string) {
		fmt.Printf("  %-12s %12v   %s\n", name, d.Round(time.Microsecond), extra)
	}
	d := timeIt(func() error {
		if err := graphblas.MxM(c, graphblas.NoMask, graphblas.NoAccum[float64](), pt, af, af, nil); err != nil {
			return err
		}
		return graphblas.Wait()
	})
	nv, _ := c.NVals()
	report("mxm", d, fmt.Sprintf("C = A⊕.⊗A, %d output entries", nv))

	d = timeIt(func() error {
		if err := graphblas.MxV(w, graphblas.NoMaskV, graphblas.NoAccum[float64](), pt, af, frontier, nil); err != nil {
			return err
		}
		return graphblas.Wait()
	})
	report("mxv", d, "pull (dot) kernel")

	d = timeIt(func() error {
		if err := graphblas.VxM(w, graphblas.NoMaskV, graphblas.NoAccum[float64](), pt, frontier, af, nil); err != nil {
			return err
		}
		return graphblas.Wait()
	})
	report("vxm", d, "push kernel")

	d = timeIt(func() error {
		if err := graphblas.EWiseMultM(c, graphblas.NoMask, graphblas.NoAccum[float64](), graphblas.Times[float64](), af, af, nil); err != nil {
			return err
		}
		return graphblas.Wait()
	})
	report("eWiseMult", d, "A .× A (intersection)")

	d = timeIt(func() error {
		if err := graphblas.EWiseAddM(c, graphblas.NoMask, graphblas.NoAccum[float64](), graphblas.Plus[float64](), af, af, nil); err != nil {
			return err
		}
		return graphblas.Wait()
	})
	report("eWiseAdd", d, "A .+ A (union)")

	d = timeIt(func() error {
		if err := graphblas.ReduceMatrixToVector(w, graphblas.NoMaskV, graphblas.NoAccum[float64](), graphblas.PlusMonoid[float64](), af, nil); err != nil {
			return err
		}
		return graphblas.Wait()
	})
	report("reduce", d, "row sums")

	d = timeIt(func() error {
		if err := graphblas.ApplyM(c, graphblas.NoMask, graphblas.NoAccum[float64](), graphblas.AInv[float64](), af, nil); err != nil {
			return err
		}
		return graphblas.Wait()
	})
	report("apply", d, "negate all values")

	d = timeIt(func() error {
		if err := graphblas.Transpose(c, graphblas.NoMask, graphblas.NoAccum[float64](), af, nil); err != nil {
			return err
		}
		return graphblas.Wait()
	})
	report("transpose", d, "(cached after first run — by design)")

	half := make([]int, n/2)
	for i := range half {
		half[i] = 2 * i
	}
	sub, _ := graphblas.NewMatrix[float64](len(half), len(half))
	d = timeIt(func() error {
		if err := graphblas.ExtractSubmatrix(sub, graphblas.NoMask, graphblas.NoAccum[float64](), af, half, half, nil); err != nil {
			return err
		}
		return graphblas.Wait()
	})
	report("extract", d, "even-index submatrix")

	d = timeIt(func() error {
		if err := graphblas.AssignMatrixScalar(c, graphblas.NoMask, graphblas.NoAccum[float64](), 1, half, half, nil); err != nil {
			return err
		}
		return graphblas.Wait()
	})
	report("assign", d, "scalar fill of even block")
}

// runE3 shows the mask pruning benefit of Figure 2's masked mxm.
func runE3(scale, ef int, seed uint64) {
	header("E3", fmt.Sprintf("Figure 2: masked vs unmasked mxm on RMAT scale %d", scale))
	g := generate.RMAT(scale, ef, seed).Dedup(true)
	af, ab, _ := buildAdjacencies(g)
	n := g.N
	_ = ab
	pt := graphblas.PlusTimes[float64]()
	// Sparse mask: the graph's own pattern (≈nnz positions of n² possible).
	c, _ := graphblas.NewMatrix[float64](n, n)
	dU := timeIt(func() error {
		if err := graphblas.MxM(c, graphblas.NoMask, graphblas.NoAccum[float64](), pt, af, af, nil); err != nil {
			return err
		}
		return graphblas.Wait()
	})
	full, _ := c.NVals()
	dM := timeIt(func() error {
		if err := graphblas.MxM(c, af, graphblas.NoAccum[float64](), pt, af, af, graphblas.Desc().ReplaceOutput()); err != nil {
			return err
		}
		return graphblas.Wait()
	})
	masked, _ := c.NVals()
	fmt.Printf("  unmasked C=A²:    %12v   %9d entries\n", dU.Round(time.Microsecond), full)
	fmt.Printf("  masked  C⟨A⟩=A²:  %12v   %9d entries   speedup ×%.2f\n",
		dM.Round(time.Microsecond), masked, float64(dU)/float64(dM))
	fmt.Println("  (the 64-combination semantics sweep runs in `go test -run TestFig2`)")
}

// runE5 reproduces the Figure 3 experiment: batched BC vs classic Brandes
// across scales.
func runE5(scale, ef int, seed uint64) {
	header("E5", "Figure 3: batched BC_update vs classic Brandes")
	fmt.Printf("  %-8s %10s %10s %14s %14s %8s %10s\n",
		"scale", "vertices", "edges", "GraphBLAS", "Brandes", "ratio", "agreement")
	for s := 8; s <= scale; s++ {
		g := generate.RMAT(s, ef, seed).Dedup(true)
		_, _, ai := buildAdjacencies(g)
		sources := generate.NewRNG(seed + 1).Perm(g.N)[:16]
		var delta *graphblas.Vector[float32]
		dG := timeIt(func() error {
			var err error
			delta, err = algorithms.BCUpdate(ai, sources)
			if err != nil {
				return err
			}
			_, _, err = delta.ExtractTuples()
			return err
		})
		var want []float64
		dR := timeIt(func() error {
			want = refalgo.BrandesBC(refalgo.NewAdjacency(g), sources)
			return nil
		})
		idx, val, _ := delta.ExtractTuples()
		got := make([]float64, g.N)
		for k := range idx {
			got[idx[k]] = float64(val[k])
		}
		worst := 0.0
		for v := 0; v < g.N; v++ {
			d := math.Abs(got[v]-want[v]) / math.Max(1, math.Abs(want[v]))
			if d > worst {
				worst = d
			}
		}
		fmt.Printf("  %-8d %10d %10d %14v %14v %8.2f %10s\n",
			s, g.N, len(g.Edges), dG.Round(time.Microsecond), dR.Round(time.Microsecond),
			float64(dG)/float64(dR), map[bool]string{true: "✓", false: "✗"}[worst < 1e-3])
	}
}

// runE6 times the nonblocking engine's dead-store elimination.
func runE6(scale, ef int, seed uint64) {
	header("E6", "Section IV: nonblocking dead-store elimination")
	g := generate.RMAT(scale, ef, seed).Dedup(true)
	af, _, _ := buildAdjacencies(g)
	n := g.N
	pt := graphblas.PlusTimes[float64]()
	// An overwrite-heavy sequence: k full overwrites of c, only the last
	// one observable.
	sequence := func() error {
		c, err := graphblas.NewMatrix[float64](n, n)
		if err != nil {
			return err
		}
		for k := 0; k < 8; k++ {
			if err := graphblas.MxM(c, graphblas.NoMask, graphblas.NoAccum[float64](), pt, af, af, nil); err != nil {
				return err
			}
		}
		if err := graphblas.Wait(); err != nil {
			return err
		}
		_, err = c.NVals()
		return err
	}
	core.SetElision(false)
	dOff := timeIt(sequence)
	core.SetElision(true)
	dOn := timeIt(sequence)
	st := graphblas.StatsSnapshot()
	fmt.Printf("  8 redundant A² overwrites, elision off: %12v\n", dOff.Round(time.Microsecond))
	fmt.Printf("  8 redundant A² overwrites, elision on:  %12v   speedup ×%.2f\n",
		dOn.Round(time.Microsecond), float64(dOff)/float64(dOn))
	fmt.Printf("  engine counters: %d enqueued, %d executed, %d elided\n",
		st.OpsEnqueued, st.OpsExecuted, st.OpsElided)
}

// runE8 compares the GraphBLAS algorithm suite against the direct baselines.
func runE8(scale, ef int, seed uint64) {
	header("E8", fmt.Sprintf("Section VIII: algorithm suite vs baselines, RMAT scale %d", scale))
	g := generate.RMAT(scale, ef, seed).Dedup(true)
	sym := generate.RMAT(scale, ef, seed).Symmetrize().Dedup(true)
	af, ab, _ := buildAdjacencies(g)
	_, sb, _ := buildAdjacencies(sym)
	adj := refalgo.NewAdjacency(g)
	sadj := refalgo.NewAdjacency(sym)
	fmt.Printf("  %-12s %14s %14s %8s %10s\n", "algorithm", "GraphBLAS", "baseline", "ratio", "agreement")

	row := func(name string, grb func() (any, error), base func() any, agree func(any, any) bool) {
		var gv any
		dG := timeIt(func() error {
			var err error
			gv, err = grb()
			return err
		})
		var bv any
		dB := timeIt(func() error { bv = base(); return nil })
		fmt.Printf("  %-12s %14v %14v %8.2f %10s\n", name,
			dG.Round(time.Microsecond), dB.Round(time.Microsecond), float64(dG)/float64(dB),
			map[bool]string{true: "✓", false: "✗"}[agree(gv, bv)])
	}

	intsAgree := func(a, b any) bool {
		x, y := a.([]int), b.([]int)
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	bfs := func() (any, error) {
		lv, err := algorithms.BFSLevels(ab, 0)
		if err != nil {
			return nil, err
		}
		idx, val, err := lv.ExtractTuples()
		if err != nil {
			return nil, err
		}
		out := make([]int, g.N)
		for i := range out {
			out[i] = -1
		}
		for k := range idx {
			out[idx[k]] = int(val[k])
		}
		return out, nil
	}
	row("BFS", bfs, func() any { return refalgo.BFSLevels(adj, 0) }, intsAgree)

	row("SSSP",
		func() (any, error) {
			dist, err := algorithms.SSSP(af, 0)
			if err != nil {
				return nil, err
			}
			idx, val, err := dist.ExtractTuples()
			if err != nil {
				return nil, err
			}
			out := make([]float64, g.N)
			for i := range out {
				out[i] = math.Inf(1)
			}
			for k := range idx {
				out[idx[k]] = val[k]
			}
			return out, nil
		},
		func() any { return refalgo.Dijkstra(adj, 0) },
		func(a, b any) bool {
			x, y := a.([]float64), b.([]float64)
			for i := range x {
				if math.IsInf(x[i], 1) != math.IsInf(y[i], 1) {
					return false
				}
				if !math.IsInf(x[i], 1) && math.Abs(x[i]-y[i]) > 1e-9 {
					return false
				}
			}
			return true
		})

	row("PageRank",
		func() (any, error) {
			r, _, err := algorithms.PageRank(af, 0.85, 1e-8, 200)
			if err != nil {
				return nil, err
			}
			idx, val, err := r.ExtractTuples()
			if err != nil {
				return nil, err
			}
			out := make([]float64, g.N)
			for k := range idx {
				out[idx[k]] = val[k]
			}
			return out, nil
		},
		func() any { r, _ := refalgo.PageRank(adj, 0.85, 1e-8, 200); return r },
		func(a, b any) bool {
			x, y := a.([]float64), b.([]float64)
			for i := range x {
				if math.Abs(x[i]-y[i]) > 1e-5 {
					return false
				}
			}
			return true
		})

	row("Triangles",
		func() (any, error) { return algorithms.TriangleCount(sb) },
		func() any { return refalgo.TriangleCount(sadj) },
		func(a, b any) bool { return a.(int64) == b.(int64) })

	row("Components",
		func() (any, error) {
			l, err := algorithms.ConnectedComponents(sb)
			if err != nil {
				return nil, err
			}
			idx, val, err := l.ExtractTuples()
			if err != nil {
				return nil, err
			}
			out := make([]int, sym.N)
			for k := range idx {
				out[idx[k]] = int(val[k])
			}
			return out, nil
		},
		func() any { return refalgo.ConnectedComponents(sym) },
		func(a, b any) bool {
			x, y := a.([]int), b.([]int)
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		})

	// The same BFS once a transposed read has left Aᵀ cached on the matrix:
	// the engine then pulls the dense middle levels (sparse.Ring.PullWins) where
	// the row above, with no transpose in hand, pushed every level.
	abT, err := graphblas.NewMatrix[bool](g.N, g.N)
	if err == nil {
		err = graphblas.Transpose(abT, graphblas.NoMask, graphblas.NoAccum[bool](), ab, nil)
	}
	if err == nil {
		err = graphblas.Wait()
	}
	if err != nil {
		fmt.Printf("  transposed read of A failed, the next row runs cold: %v\n", err)
	}
	row("BFS (dir-opt)", bfs, func() any { return refalgo.BFSLevels(adj, 0) }, intsAgree)

	row("k-core",
		func() (any, error) {
			c, err := algorithms.CoreNumbers(sb)
			if err != nil {
				return nil, err
			}
			idx, val, err := c.ExtractTuples()
			if err != nil {
				return nil, err
			}
			out := make([]int, sym.N)
			for k := range idx {
				out[idx[k]] = int(val[k])
			}
			return out, nil
		},
		func() any { return refalgo.CoreNumbers(sadj) },
		intsAgree)

	row("SCC",
		func() (any, error) {
			l, err := algorithms.SCC(ab)
			if err != nil {
				return nil, err
			}
			idx, val, err := l.ExtractTuples()
			if err != nil {
				return nil, err
			}
			out := make([]int, g.N)
			for k := range idx {
				out[idx[k]] = int(val[k])
			}
			return out, nil
		},
		func() any { return refalgo.TarjanSCC(adj) },
		intsAgree)

	// BC is E5's table; include the single-scale row here for completeness.
	_, _, ai := buildAdjacencies(g)
	sources := generate.NewRNG(seed + 1).Perm(g.N)[:16]
	row("BC (batch16)",
		func() (any, error) {
			d, err := algorithms.BCUpdate(ai, sources)
			if err != nil {
				return nil, err
			}
			idx, val, err := d.ExtractTuples()
			if err != nil {
				return nil, err
			}
			out := make([]float64, g.N)
			for k := range idx {
				out[idx[k]] = float64(val[k])
			}
			return out, nil
		},
		func() any { return refalgo.BrandesBC(adj, sources) },
		func(a, b any) bool {
			x, y := a.([]float64), b.([]float64)
			for i := range x {
				if math.Abs(x[i]-y[i])/math.Max(1, math.Abs(y[i])) > 1e-3 {
					return false
				}
			}
			return true
		})

	_ = builtins.PlusFP32
}

// runE7b exercises the fault-injection harness end to end: deterministic
// fault plans against the live engine, reporting how many faults were
// injected, how the engine absorbed them (CSR retries vs transactional
// rollbacks), and whether the observable results survived intact. This is
// the quantitative companion to the E7 error-model test suite (Section V).
func runE7b(scale, ef int, seed uint64) {
	header("E7b", fmt.Sprintf("Section V: fault injection and transactional recovery, RMAT scale %d", scale))
	g := generate.RMAT(scale, ef, seed).Dedup(true)
	n := g.N
	pt := graphblas.PlusTimes[float64]()
	defer graphblas.DisableFaults()

	// Dense operand vector and the clean reference result.
	ones := make([]float64, n)
	idx := make([]int, n)
	for i := range ones {
		ones[i], idx[i] = 1, i
	}
	newX := func() *graphblas.Vector[float64] {
		x, err := graphblas.NewVector[float64](n)
		if err != nil {
			log.Fatal(err)
		}
		if err := x.Build(idx, ones, graphblas.NoAccum[float64]()); err != nil {
			log.Fatal(err)
		}
		return x
	}
	vecOf := func(v *graphblas.Vector[float64]) map[int]float64 {
		vi, vv, err := v.ExtractTuples()
		if err != nil {
			log.Fatal(err)
		}
		out := make(map[int]float64, len(vi))
		for k := range vi {
			out[vi[k]] = vv[k]
		}
		return out
	}
	// w = Aᵀx for a dense x: the engine pulls over a cached transpose, the
	// kernel it chose over the push and so retries on the push when it fails.
	tran := graphblas.Desc().Transpose0()
	af, _, _ := buildAdjacencies(g)
	ref, err := graphblas.NewVector[float64](n)
	if err != nil {
		log.Fatal(err)
	}
	if err := graphblas.MxV(ref, graphblas.NoMaskV, graphblas.NoAccum[float64](), pt, af, newX(), tran); err != nil {
		log.Fatal(err)
	}
	if err := graphblas.Wait(); err != nil {
		log.Fatal(err)
	}
	want := vecOf(ref)

	fmt.Printf("  %-38s %9s %8s %10s %7s   %s\n", "scenario", "injected", "retries", "rollbacks", "errors", "result")

	agree := func(v *graphblas.Vector[float64]) bool {
		got := vecOf(v)
		if len(got) != len(want) {
			return false
		}
		for i, x := range want {
			if got[i] != x {
				return false
			}
		}
		return true
	}

	// mxvRound runs rounds pulled MxV products on a fresh adjacency, whose
	// transpose the first one builds, under whatever plan the caller
	// installed and reports the outcome row.
	mxvRound := func(name string, rounds int) {
		a, _, _ := buildAdjacencies(g)
		before := graphblas.StatsSnapshot()
		ok := true
		for r := 0; r < rounds; r++ {
			w, err := graphblas.NewVector[float64](n)
			if err != nil {
				log.Fatal(err)
			}
			if err := graphblas.MxV(w, graphblas.NoMaskV, graphblas.NoAccum[float64](), pt, a, newX(), tran); err != nil {
				log.Fatal(err)
			}
			if err := graphblas.Wait(); err != nil {
				ok = false
			}
			ok = ok && agree(w)
		}
		injected := graphblas.InjectedFaults()
		graphblas.DisableFaults()
		graphblas.SetAllocBudget(0)
		after := graphblas.StatsSnapshot()
		fmt.Printf("  %-38s %9d %8d %10d %7d   %s\n", name, injected,
			after.KernelRetries-before.KernelRetries, after.Rollbacks-before.Rollbacks,
			len(graphblas.SequenceErrors()),
			map[bool]string{true: "✓ matches push result", false: "✗ diverged"}[ok])
	}

	graphblas.ConfigureFaults(int64(seed), graphblas.FaultRule{Site: "format.kernel.csr.pull", Kind: graphblas.FaultErr, Every: 2})
	mxvRound("pull kernel faults (every 2nd call)", 8)

	graphblas.SetAllocBudget(1 << 10)
	mxvRound("alloc governor starved (1 KiB cap)", 8)

	// Op-level faults: whole operations fail; outputs roll back and the
	// sequence error log records each failure.
	graphblas.ConfigureFaults(int64(seed), graphblas.FaultRule{Site: "MxV", Kind: graphblas.FaultOOM, Every: 3})
	before := graphblas.StatsSnapshot()
	survived, logged := 0, 0
	const opRounds = 9
	for r := 0; r < opRounds; r++ {
		w, err := graphblas.NewVector[float64](n)
		if err != nil {
			log.Fatal(err)
		}
		if err := graphblas.MxV(w, graphblas.NoMaskV, graphblas.NoAccum[float64](), pt, af, newX(), tran); err != nil {
			log.Fatal(err)
		}
		if err := graphblas.Wait(); err != nil {
			// Each Wait terminates one sequence; harvest its error log
			// before the next sequence replaces it.
			logged += len(graphblas.SequenceErrors())
			continue
		}
		if agree(w) {
			survived++
		}
	}
	injected := graphblas.InjectedFaults()
	graphblas.DisableFaults()
	after := graphblas.StatsSnapshot()
	fmt.Printf("  %-38s %9d %8d %10d %7d   ✓ %d/%d ops survived, failures logged\n",
		fmt.Sprintf("op-level OOM (every 3rd of %d MxV)", opRounds), injected,
		after.KernelRetries-before.KernelRetries, after.Rollbacks-before.Rollbacks,
		logged, survived, opRounds)

	// A faulty user operator panics mid-kernel: the op fails with GrB_PANIC,
	// the output rolls back, and a full overwrite rehabilitates it.
	boom, err := graphblas.NewUnaryOp("boom", func(float64) float64 { panic("user operator bug") })
	if err != nil {
		log.Fatal(err)
	}
	c, err := graphblas.NewMatrix[float64](n, n)
	if err != nil {
		log.Fatal(err)
	}
	before = graphblas.StatsSnapshot()
	_ = graphblas.ApplyM(c, graphblas.NoMask, graphblas.NoAccum[float64](), boom, af, nil)
	werr := graphblas.Wait()
	panicLogged := len(graphblas.SequenceErrors())
	rehab := graphblas.Transpose(c, graphblas.NoMask, graphblas.NoAccum[float64](), af, nil) == nil && graphblas.Wait() == nil
	after = graphblas.StatsSnapshot()
	status := "✗ not recovered"
	if graphblas.InfoOf(werr) == graphblas.PanicInfo && rehab {
		status = "✓ GrB_PANIC + rollback, rehabilitated"
	}
	fmt.Printf("  %-38s %9d %8d %10d %7d   %s\n", "faulty user operator (panic)", 0,
		after.KernelRetries-before.KernelRetries, after.Rollbacks-before.Rollbacks,
		panicLogged, status)
}
