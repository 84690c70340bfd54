package core

import (
	"math/rand"
	"os"
	"testing"

	"graphblas/internal/leakcheck"
	"graphblas/internal/pool"
)

// TestMain initializes the GraphBLAS context once for the package; tests
// that need a specific mode reset and re-init via withMode.
func TestMain(m *testing.M) {
	ResetForTesting()
	if err := Init(Blocking); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// withMode runs f under a fresh context in the given mode and restores a
// blocking context afterwards.
func withMode(t *testing.T, mode Mode, f func()) {
	t.Helper()
	ResetForTesting()
	if err := Init(mode); err != nil {
		t.Fatalf("Init(%v): %v", mode, err)
	}
	defer func() {
		ResetForTesting()
		if err := Init(Blocking); err != nil {
			t.Fatalf("re-Init: %v", err)
		}
	}()
	f()
}

// assertQuiescent, called when a test starts, registers what the test must
// leave behind when it ends: leakcheck's goroutine and pool balance, and no
// value array or index list of a vector handed to the returned watch
// function on the pool's shelves — a live vector's values or positions
// recycled while it still holds them would be overwritten by the next
// kernel that draws them.
func assertQuiescent(t *testing.T) (watch func(...shelvable)) {
	t.Helper()
	leakcheck.AssertQuiescent(t)
	var live []shelvable
	t.Cleanup(func() {
		for k, v := range live {
			if v.shelved() {
				t.Errorf("leak: watched vector %d holds a value array or index list the pool has recycled", k)
			}
		}
	})
	return func(vs ...shelvable) { live = append(live, vs...) }
}

// shelvable is a vector whose committed values and positions can be looked
// for on the pool's shelves.
type shelvable interface{ shelved() bool }

func (v *Vector[D]) shelved() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.data != nil && (pool.Holds(v.data.Val) || pool.Holds(v.data.Idx))
}

// churnIdx draws index lists of every size class a test vector's positions
// occupy, the shelved ones included, writes -1 over each and shelves them
// again: a list the pool took back while a vector still held it now holds a
// position no vector stores, and the model comparison that follows shows
// it. Call it between flushes only.
func churnIdx() {
	for class := 0; class <= 8; class++ {
		drawn := make([][]int, 0, 16)
		for k := 0; k < cap(drawn); k++ {
			s := pool.Vals[int](1 << class)
			for i := range s {
				s[i] = -1
			}
			drawn = append(drawn, s)
		}
		for _, s := range drawn {
			pool.Recycle(s)
		}
	}
}

// key is a dense-model coordinate.
type key struct{ i, j int }

// dmat is the dense reference model: only stored entries appear.
type dmat map[key]float64

// newTestMatrix builds a Matrix[float64] and its dense model with the given
// fill probability.
func newTestMatrix(t *testing.T, rng *rand.Rand, nr, nc int, p float64) (*Matrix[float64], dmat) {
	t.Helper()
	m, err := NewMatrix[float64](nr, nc)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	d := dmat{}
	var is, js []int
	var vs []float64
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Float64() < p {
				v := float64(rng.Intn(9) + 1)
				d[key{i, j}] = v
				is = append(is, i)
				js = append(js, j)
				vs = append(vs, v)
			}
		}
	}
	if err := m.Build(is, js, vs, NoAccum[float64]()); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m, d
}

// newTestMask builds a Matrix[bool] mask plus dense models of its stored
// structure and effective (stored-and-true) pattern.
func newTestMask(t *testing.T, rng *rand.Rand, nr, nc int, pStored, pTrue float64) (*Matrix[bool], map[key]bool, map[key]bool) {
	t.Helper()
	m, err := NewMatrix[bool](nr, nc)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	stored := map[key]bool{}
	eff := map[key]bool{}
	var is, js []int
	var vs []bool
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Float64() < pStored {
				val := rng.Float64() < pTrue
				stored[key{i, j}] = true
				if val {
					eff[key{i, j}] = true
				}
				is = append(is, i)
				js = append(js, j)
				vs = append(vs, val)
			}
		}
	}
	if err := m.Build(is, js, vs, NoAccum[bool]()); err != nil {
		t.Fatalf("Build mask: %v", err)
	}
	return m, stored, eff
}

// denseOf extracts the dense model of a matrix.
func denseOf(t *testing.T, m *Matrix[float64]) dmat {
	t.Helper()
	is, js, vs, err := m.ExtractTuples()
	if err != nil {
		t.Fatalf("ExtractTuples: %v", err)
	}
	d := dmat{}
	for k := range is {
		d[key{is[k], js[k]}] = vs[k]
	}
	return d
}

// equalDense compares a matrix against the dense model.
func equalDense(t *testing.T, got dmat, want dmat, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: nvals got %d want %d", label, len(got), len(want))
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: missing entry (%d,%d)=%v", label, k.i, k.j, v)
			continue
		}
		if g != v {
			t.Errorf("%s: entry (%d,%d) got %v want %v", label, k.i, k.j, g, v)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: spurious entry (%d,%d)=%v", label, k.i, k.j, g)
		}
	}
}

// oracleMxMWrite implements the full Figure 2 pipeline on dense models:
// T = A' ⊕.⊗ B' (plus-times), Z = accum ? C⊙T : T, then the mask/replace
// write into C.
func oracleMxMWrite(c dmat, a dmat, anr, anc int, b dmat, bnc int,
	tranA, tranB bool, stored, eff map[key]bool, useMask, scmp bool,
	accum bool, replace bool) dmat {

	av := func(i, k int) (float64, bool) {
		if tranA {
			v, ok := a[key{k, i}]
			return v, ok
		}
		v, ok := a[key{i, k}]
		return v, ok
	}
	bv := func(k, j int) (float64, bool) {
		if tranB {
			v, ok := b[key{j, k}]
			return v, ok
		}
		v, ok := b[key{k, j}]
		return v, ok
	}
	m, l, n := anr, anc, bnc
	if tranA {
		m, l = anc, anr
	}
	_ = l
	inner := anc
	if tranA {
		inner = anr
	}
	t := dmat{}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			has := false
			for k := 0; k < inner; k++ {
				x, ok1 := av(i, k)
				y, ok2 := bv(k, j)
				if ok1 && ok2 {
					sum += x * y
					has = true
				}
			}
			if has {
				t[key{i, j}] = sum
			}
		}
	}
	z := dmat{}
	if accum {
		for k, v := range c {
			z[k] = v
		}
		for k, v := range t {
			if cv, ok := z[k]; ok {
				z[k] = cv + v
			} else {
				z[k] = v
			}
		}
	} else {
		z = t
	}
	out := dmat{}
	allow := func(k key) bool {
		if !useMask {
			return true
		}
		if scmp {
			return !stored[k]
		}
		return eff[k]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			k := key{i, j}
			if allow(k) {
				if v, ok := z[k]; ok {
					out[k] = v
				}
			} else if !replace {
				if v, ok := c[k]; ok {
					out[k] = v
				}
			}
		}
	}
	return out
}
