package format

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"

	"graphblas/internal/obs"
	"graphblas/internal/parallel"
	"graphblas/internal/sparse"
)

// payloadCSR is an nr×nc matrix in which about one row in six is empty and
// one in eight stores every column, the rest a fraction p of their columns;
// one value in twelve is a signed zero, a NaN with a payload or 1e300.
func payloadCSR(rng *rand.Rand, nr, nc int, p float64) *sparse.CSR[float64] {
	payloads := []float64{math.Copysign(0, -1), 0, math.Float64frombits(0x7ff8000000000001), 1e300}
	var is, js []int
	var vs []float64
	for i := 0; i < nr; i++ {
		kind := rng.Intn(24)
		for j := 0; j < nc; j++ {
			if kind < 4 || kind >= 7 && rng.Float64() >= p {
				continue
			}
			v := rng.NormFloat64()
			if rng.Intn(12) == 0 {
				v = payloads[rng.Intn(len(payloads))]
			}
			is, js, vs = append(is, i), append(js, j), append(vs, v)
		}
	}
	m, ok := sparse.BuildCSR(nr, nc, is, js, vs, nil)
	if !ok {
		panic("BuildCSR failed")
	}
	return m
}

// requireModel fails unless m is a well-formed CSR, sized for its entries,
// storing exactly the model's entries with their bits.
func requireModel(t *testing.T, label string, m *sparse.CSR[float64], model map[[2]int]float64) {
	t.Helper()
	if len(m.Ptr) != m.NRows+1 || m.Ptr[m.NRows] != len(m.ColIdx) || len(m.ColIdx) != len(m.Val) ||
		cap(m.ColIdx) != len(m.ColIdx) || cap(m.Val) != len(m.Val) {
		t.Fatalf("%s: storage not sized for the result", label)
	}
	for i := 0; i < m.NRows; i++ {
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			if p > m.Ptr[i] && m.ColIdx[p-1] >= m.ColIdx[p] {
				t.Fatalf("%s: row %d columns not increasing", label, i)
			}
			want, ok := model[[2]int{i, m.ColIdx[p]}]
			if !ok || math.Float64bits(m.Val[p]) != math.Float64bits(want) {
				t.Fatalf("%s: (%d,%d) = %x, want %x (stored %v)", label, i, m.ColIdx[p], math.Float64bits(m.Val[p]), math.Float64bits(want), ok)
			}
		}
	}
	if m.NNZ() != len(model) {
		t.Fatalf("%s: %d entries, want %d", label, m.NNZ(), len(model))
	}
}

// productModel folds each entry of a·b in ascending k, the first term
// stored and the others added.
func productModel(a, b *sparse.CSR[float64]) map[[2]int]float64 {
	model := map[[2]int]float64{}
	for i := 0; i < a.NRows; i++ {
		for j := 0; j < b.NCols; j++ {
			var acc float64
			hit := false
			for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
				bv, ok := b.Get(a.ColIdx[p], j)
				if !ok {
					continue
				}
				if x := a.Val[p] * bv; hit {
					acc += x
				} else {
					acc, hit = x, true
				}
			}
			if hit {
				model[[2]int{i, j}] = acc
			}
		}
	}
	return model
}

// TestQuickCSRKernelsBitIdentical holds the format package's CSR results —
// the dense ⟨+,×⟩ product through its bitmaps and the delta merge on
// sparse.EmitCSR — to a dense model, structure and value bits, at one, two
// and four workers, on a matrix that splits into chunks, a single row and a
// matrix with no entries, with empty and full rows and signed-zero/NaN
// payloads.
func TestQuickCSRKernelsBitIdentical(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, sh := range []struct {
			name   string
			nr, nc int
			p      float64
		}{{"chunked", 100, 70, 0.35}, {"single-row", 1, 300, 0.5}, {"no-entries", 40, 30, 0}} {
			a, b := payloadCSR(rng, sh.nr, sh.nc, sh.p), payloadCSR(rng, sh.nc, sh.nc, sh.p)
			main := payloadCSR(rng, sh.nr, sh.nc, sh.p)
			var ts []sparse.Tuple[float64]
			model := map[[2]int]float64{}
			for i := 0; i < main.NRows; i++ {
				for p := main.Ptr[i]; p < main.Ptr[i+1]; p++ {
					model[[2]int{i, main.ColIdx[p]}] = main.Val[p]
				}
			}
			for k := 0; k < 3*sh.nr; k++ {
				// A tenth fall outside the main store, as after a shrinking
				// Resize, and are dropped.
				i, j := rng.Intn(sh.nr+sh.nr/10+1), rng.Intn(sh.nc+sh.nc/10+1)
				tu := sparse.Tuple[float64]{I: i, J: j, V: rng.NormFloat64(), Del: rng.Intn(3) == 0}
				ts = append(ts, tu)
				if i >= sh.nr || j >= sh.nc {
					continue
				}
				if tu.Del {
					delete(model, [2]int{i, j})
				} else {
					model[[2]int{i, j}] = tu.V
				}
			}
			d := DeltaFromTuples(sh.nr+sh.nr/10+1, sh.nc+sh.nc/10+1, ts)
			cases := []struct {
				name string
				run  func() *sparse.CSR[float64]
				want map[[2]int]float64
			}{
				{"denseProduct", func() *sparse.CSR[float64] { return denseProduct(a, b) }, productModel(a, b)},
				{"MergeDeltaCSR", func() *sparse.CSR[float64] { return MergeDeltaCSR(main, d) }, model},
			}
			for _, tc := range cases {
				for _, w := range []int{1, 2, 4} {
					parallel.SetMaxWorkers(w)
					requireModel(t, fmt.Sprintf("seed=%d %s %s workers=%d", seed, sh.name, tc.name, w), tc.run(), tc.want)
				}
				parallel.SetMaxWorkers(1)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestCSRKernelsAllocBudget pins the format package's kernel on
// sparse.EmitCSR at one worker, tracing off and the pool warm: the same
// count on a 64-row and a 256-row matrix, the builder's six.
func TestCSRKernelsAllocBudget(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)
	// A collection drops the arenas shelved weakly between calls; the
	// budget is the kernel's own allocations, so none runs meanwhile.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type fixture struct {
		a *sparse.CSR[float64]
		d *HyperDelta[float64]
	}
	fixtureOf := func(n int) fixture {
		rng := rand.New(rand.NewSource(int64(n)))
		var ts []sparse.Tuple[float64]
		for k := 0; k < n; k++ {
			ts = append(ts, sparse.Tuple[float64]{I: rng.Intn(n), J: rng.Intn(n), V: 1, Del: k%4 == 0})
		}
		return fixture{a: randCSR(rng, n, n, 0.1), d: DeltaFromTuples(n, n, ts)}
	}
	cases := []struct {
		name   string
		budget float64
		run    func(f fixture)
	}{
		{"MergeDeltaCSR", 6, func(f fixture) { MergeDeltaCSR(f.a, f.d) }},
	}
	small, large := fixtureOf(64), fixtureOf(256)
	for _, tc := range cases {
		for _, f := range []fixture{small, large} {
			tc.run(f) // warm the pool shelves so steady state is measured
			if allocs := testing.AllocsPerRun(20, func() { tc.run(f) }); allocs != tc.budget {
				t.Errorf("%s on %d rows allocates %.1f per call, budget %.0f — a new hot-path allocation needs pooling or a reviewed budget bump", tc.name, f.a.NRows, allocs, tc.budget)
			}
		}
	}
}
