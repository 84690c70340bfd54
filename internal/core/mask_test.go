package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"graphblas/internal/obs"
	"graphblas/internal/parallel"
)

// TestValueMaskAllocBudget: a value mask with a false entry is resolved into
// a list of its true positions on every operation that reads it — an SSSP
// frontier's mask every sweep. The list and the resolved mask come from the
// pool and go back once the write-back is in, so a masked ApplyV and MxV
// under a half-false bool mask allocate no more, in count or in bytes, than
// under an all-true one, whose list is the mask's own storage.
func TestValueMaskAllocBudget(t *testing.T) {
	parallel.SetMaxWorkersForTest(t, 1)
	prev := obs.SetTracer(nil)
	defer obs.SetTracer(prev)
	// A collection drops the arrays shelved weakly between calls.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 512
	rng := rand.New(rand.NewSource(29))
	a, _ := newTestMatrix(t, rng, n, n, 0.02)
	u, _ := randVecModel(t, rng, n, 1)
	w, err := NewVector[float64](n)
	if err != nil {
		t.Fatal(err)
	}
	mask := func(falseEvery int) *Vector[bool] {
		m, err := NewVector[bool](n)
		if err != nil {
			t.Fatal(err)
		}
		idx, val := make([]int, n), make([]bool, n)
		for i := range idx {
			idx[i], val[i] = i, falseEvery == 0 || i%falseEvery != 0
		}
		if err := m.Build(idx, val, NoAccum[bool]()); err != nil {
			t.Fatal(err)
		}
		return m
	}
	allTrue, halfFalse := mask(0), mask(2)
	neg := UnaryOp[float64, float64]{Name: "neg", F: func(x float64) float64 { return -x }}
	s := plusTimesF64(t)
	replace := Desc().ReplaceOutput()
	ops := map[string]func(m *Vector[bool]) error{
		"ApplyV": func(m *Vector[bool]) error { return ApplyV(w, m, NoAccum[float64](), neg, u, replace) },
		"MxV":    func(m *Vector[bool]) error { return MxV(w, m, NoAccum[float64](), s, a, u, replace) },
	}
	// cost is the mallocs and bytes one call of op under m makes in the
	// steady state, after two warm-up calls fill the pool's shelves, each
	// rounded down as testing.AllocsPerRun rounds: the first shelving of an
	// array registers a 16-byte weak pointer now and then.
	cost := func(op func(*Vector[bool]) error, m *Vector[bool]) (mallocs, bytes uint64) {
		const calls = 100
		for k := 0; k < 2; k++ {
			if err := op(m); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < calls; k++ {
			if err := op(m); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / calls, (after.TotalAlloc - before.TotalAlloc) / calls
	}
	// least is cost's least of three runs: an array a run finds off its
	// shelf now and then costs that run a fresh one.
	least := func(op func(*Vector[bool]) error, m *Vector[bool]) (mallocs, bytes uint64) {
		mallocs, bytes = cost(op, m)
		for k := 0; k < 2; k++ {
			ma, by := cost(op, m)
			mallocs, bytes = min(mallocs, ma), min(bytes, by)
		}
		return mallocs, bytes
	}
	for name, op := range ops {
		trueMallocs, trueBytes := least(op, allTrue)
		halfMallocs, halfBytes := least(op, halfFalse)
		t.Logf("%s: all-true mask %d mallocs %d B, half-false %d mallocs %d B per call", name, trueMallocs, trueBytes, halfMallocs, halfBytes)
		if halfMallocs > trueMallocs || halfBytes > trueBytes {
			t.Errorf("%s under a half-false mask allocates %d times, %d B per call; under an all-true one %d, %d B — the mask's list of true positions is not pooled", name, halfMallocs, halfBytes, trueMallocs, trueBytes)
		}
	}
}
