package core

import (
	"fmt"
	"math/rand"
	"testing"

	"graphblas/internal/obs"
	"graphblas/internal/parallel"
)

// Model-based testing: long random operation sequences run both through the
// library and through a straightforward dense interpreter; after every step
// all objects must agree. This exercises interactions no single-op sweep
// reaches — output/input aliasing, pending point updates interleaved with
// operations, mask objects that are also operands, and (in nonblocking
// mode) the deferred-execution engine under all of it.

// modelState pairs each Matrix with its dense model.
type modelState struct {
	mats   []*Matrix[float64]
	models []dmat
	n      int
}

func newModelState(t *testing.T, rng *rand.Rand, count, n int) *modelState {
	st := &modelState{n: n}
	for k := 0; k < count; k++ {
		m, d := newTestMatrix(t, rng, n, n, 0.25)
		st.mats = append(st.mats, m)
		st.models = append(st.models, d)
	}
	return st
}

// applyMaskWrite runs the shared dense write pipeline with matrix mask km
// (stored/eff models) applied.
func applyMaskWrite(c, t dmat, n int, stored, eff map[key]bool, useMask, scmp, accum, replace bool) dmat {
	return oracleWrite(c, t, n, n, stored, eff, useMask, scmp, accum, replace)
}

func (st *modelState) maskModels(mi int) (stored, eff map[key]bool) {
	stored = map[key]bool{}
	eff = map[key]bool{}
	for k, v := range st.models[mi] {
		stored[k] = true
		if v != 0 { // float truthiness matches the library's rule
			eff[k] = true
		}
	}
	return stored, eff
}

func TestModelBasedRandomSequences(t *testing.T) {
	for _, mode := range []Mode{Blocking, NonBlocking} {
		t.Run(mode.String(), func(t *testing.T) {
			withMode(t, mode, func() {
				for seed := int64(0); seed < 6; seed++ {
					runModelSequence(t, seed, 40)
				}
			})
		})
	}
}

func runModelSequence(t *testing.T, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 7
	st := newModelState(t, rng, 4, n)
	s := plusTimesF64(t)
	neg := UnaryOp[float64, float64]{Name: "neg", F: func(x float64) float64 { return -x }}

	for step := 0; step < steps; step++ {
		ci := rng.Intn(len(st.mats))
		ai := rng.Intn(len(st.mats))
		bi := rng.Intn(len(st.mats))
		useMask := rng.Intn(3) == 0
		mi := rng.Intn(len(st.mats))
		scmp := useMask && rng.Intn(2) == 0
		accum := rng.Intn(3) == 0
		replace := rng.Intn(2) == 0
		desc := &Descriptor{}
		if scmp {
			desc.CompMask()
		}
		if replace {
			desc.ReplaceOutput()
		}
		acc := NoAccum[float64]()
		if accum {
			acc = plusF64()
		}
		var mk *Matrix[float64]
		if useMask {
			mk = st.mats[mi]
		}
		stored, eff := st.maskModels(mi)
		label := fmt.Sprintf("seed %d step %d", seed, step)

		switch op := rng.Intn(6); op {
		case 0: // mxm
			if err := MxM(st.mats[ci], mk, acc, s, st.mats[ai], st.mats[bi], desc); err != nil {
				t.Fatalf("%s MxM: %v", label, err)
			}
			tm := dmat{}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					sum, has := 0.0, false
					for k := 0; k < n; k++ {
						av, ok1 := st.models[ai][key{i, k}]
						bv, ok2 := st.models[bi][key{k, j}]
						if ok1 && ok2 {
							sum += av * bv
							has = true
						}
					}
					if has {
						tm[key{i, j}] = sum
					}
				}
			}
			st.models[ci] = applyMaskWrite(st.models[ci], tm, n, stored, eff, useMask, scmp, accum, replace)
		case 1: // eWiseAdd
			if err := EWiseAddM(st.mats[ci], mk, acc, plusF64(), st.mats[ai], st.mats[bi], desc); err != nil {
				t.Fatalf("%s EWiseAdd: %v", label, err)
			}
			tm := dmat{}
			for k, v := range st.models[ai] {
				tm[k] = v
			}
			for k, v := range st.models[bi] {
				if cv, ok := tm[k]; ok {
					tm[k] = cv + v
				} else {
					tm[k] = v
				}
			}
			st.models[ci] = applyMaskWrite(st.models[ci], tm, n, stored, eff, useMask, scmp, accum, replace)
		case 2: // apply(neg)
			if err := ApplyM(st.mats[ci], mk, acc, neg, st.mats[ai], desc); err != nil {
				t.Fatalf("%s Apply: %v", label, err)
			}
			tm := dmat{}
			for k, v := range st.models[ai] {
				tm[k] = -v
			}
			st.models[ci] = applyMaskWrite(st.models[ci], tm, n, stored, eff, useMask, scmp, accum, replace)
		case 3: // transpose
			if err := Transpose(st.mats[ci], mk, acc, st.mats[ai], desc); err != nil {
				t.Fatalf("%s Transpose: %v", label, err)
			}
			tm := dmat{}
			for k, v := range st.models[ai] {
				tm[key{k.j, k.i}] = v
			}
			st.models[ci] = applyMaskWrite(st.models[ci], tm, n, stored, eff, useMask, scmp, accum, replace)
		case 4: // point updates (SetElement / RemoveElement bursts)
			for b := 0; b < 5; b++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if rng.Intn(4) == 0 {
					if err := st.mats[ci].RemoveElement(i, j); err != nil {
						t.Fatalf("%s Remove: %v", label, err)
					}
					delete(st.models[ci], key{i, j})
				} else {
					x := float64(rng.Intn(9) + 1)
					if err := st.mats[ci].SetElement(x, i, j); err != nil {
						t.Fatalf("%s Set: %v", label, err)
					}
					st.models[ci][key{i, j}] = x
				}
			}
		case 5: // scalar region assign
			rows := []int{rng.Intn(n), (rng.Intn(n-1) + 1 + rng.Intn(n)) % n}
			if rows[0] == rows[1] {
				rows = rows[:1]
			}
			x := float64(rng.Intn(5) + 1)
			if err := AssignMatrixScalar(st.mats[ci], mk, acc, x, rows, All, desc); err != nil {
				t.Fatalf("%s AssignScalar: %v", label, err)
			}
			z := dmat{}
			for k, v := range st.models[ci] {
				z[k] = v
			}
			for _, i := range rows {
				for j := 0; j < n; j++ {
					k := key{i, j}
					if accum {
						if cv, ok := z[k]; ok {
							z[k] = cv + x
							continue
						}
					}
					z[k] = x
				}
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
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					k := key{i, j}
					if allow(k) {
						if v, ok := z[k]; ok {
							out[k] = v
						}
					} else if !replace {
						if v, ok := st.models[ci][k]; ok {
							out[k] = v
						}
					}
				}
			}
			st.models[ci] = out
		}

		// Compare every object after every step (forces the queue, which
		// also stresses force/requeue transitions in nonblocking mode).
		for k := range st.mats {
			got := denseOf(t, st.mats[k])
			want := st.models[k]
			if len(got) != len(want) {
				t.Fatalf("%s: object %d nvals %d want %d", label, k, len(got), len(want))
			}
			for kk, v := range want {
				if got[kk] != v {
					t.Fatalf("%s: object %d (%d,%d) got %v want %v", label, k, kk.i, kk.j, got[kk], v)
				}
			}
		}
	}
}

// TestModelBasedVectorSequences mirrors the matrix model test for the
// vector operations, comparing only every few steps so the nonblocking
// queue actually accumulates depth between checks.
//
// Every sequence overwrites its vectors over and over, so it runs on values
// and index lists the pool recycled from the stores it superseded: the
// sweep requires that recycling happened, and — after every operation, at
// one, two and four workers — that no live vector holds an array on the
// pool's shelves.
func TestModelBasedVectorSequences(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []Mode{Blocking, NonBlocking} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(t *testing.T) {
				parallel.SetMaxWorkersForTest(t, workers)
				watch := assertQuiescent(t)
				withMode(t, mode, func() {
					for seed := int64(0); seed < 6; seed++ {
						for _, v := range runVectorModelSequence(t, seed, 60) {
							watch(v)
						}
					}
					if obs.StoresRecycled.Value() == 0 {
						t.Fatal("graphblas_stores_recycled_total stayed 0 over the sweep")
					}
				})
			})
		}
	}
}

func runVectorModelSequence(t *testing.T, seed int64, steps int) []*Vector[float64] {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 9
	var vecs []*Vector[float64]
	var models []map[int]float64
	for k := 0; k < 4; k++ {
		v, m := randVecModel(t, rng, n, 0.35)
		vecs = append(vecs, v)
		models = append(models, m)
	}
	a, ad := newTestMatrix(t, rng, n, n, 0.3)
	s := plusTimesF64(t)
	neg := UnaryOp[float64, float64]{Name: "neg", F: func(x float64) float64 { return -x }}

	maskModels := func(mi int) (stored, eff map[int]bool) {
		stored = map[int]bool{}
		eff = map[int]bool{}
		for i, v := range models[mi] {
			stored[i] = true
			if v != 0 {
				eff[i] = true
			}
		}
		return
	}
	copyModel := func(m map[int]float64) map[int]float64 {
		out := map[int]float64{}
		for k, v := range m {
			out[k] = v
		}
		return out
	}

	for step := 0; step < steps; step++ {
		wi := rng.Intn(len(vecs))
		ui := rng.Intn(len(vecs))
		vi := rng.Intn(len(vecs))
		useMask := rng.Intn(3) == 0
		mi := rng.Intn(len(vecs))
		scmp := useMask && rng.Intn(2) == 0
		accum := rng.Intn(3) == 0
		replace := rng.Intn(2) == 0
		desc := sweepDesc(scmp, replace)
		acc := NoAccum[float64]()
		if accum {
			acc = plusF64()
		}
		var mk *Vector[float64]
		if useMask {
			mk = vecs[mi]
		}
		stored, eff := maskModels(mi)
		label := fmt.Sprintf("vec seed %d step %d", seed, step)

		switch rng.Intn(5) {
		case 0: // vxm
			if err := VxM(vecs[wi], mk, acc, s, vecs[ui], a, desc); err != nil {
				t.Fatalf("%s VxM: %v", label, err)
			}
			tm := map[int]float64{}
			for j := 0; j < n; j++ {
				sum, has := 0.0, false
				for k := 0; k < n; k++ {
					uv, ok1 := models[ui][k]
					av, ok2 := ad[key{k, j}]
					if ok1 && ok2 {
						sum += uv * av
						has = true
					}
				}
				if has {
					tm[j] = sum
				}
			}
			models[wi] = vecOracleWrite(models[wi], tm, n, stored, eff, useMask, scmp, accum, replace)
		case 1: // eWiseAdd
			if err := EWiseAddV(vecs[wi], mk, acc, plusF64(), vecs[ui], vecs[vi], desc); err != nil {
				t.Fatalf("%s EWiseAddV: %v", label, err)
			}
			tm := copyModel(models[ui])
			for k, v := range models[vi] {
				if cv, ok := tm[k]; ok {
					tm[k] = cv + v
				} else {
					tm[k] = v
				}
			}
			models[wi] = vecOracleWrite(models[wi], tm, n, stored, eff, useMask, scmp, accum, replace)
		case 2: // apply(neg)
			if err := ApplyV(vecs[wi], mk, acc, neg, vecs[ui], desc); err != nil {
				t.Fatalf("%s ApplyV: %v", label, err)
			}
			tm := map[int]float64{}
			for k, v := range models[ui] {
				tm[k] = -v
			}
			models[wi] = vecOracleWrite(models[wi], tm, n, stored, eff, useMask, scmp, accum, replace)
		case 3: // point updates
			for b := 0; b < 4; b++ {
				i := rng.Intn(n)
				if rng.Intn(4) == 0 {
					if err := vecs[wi].RemoveElement(i); err != nil {
						t.Fatalf("%s Remove: %v", label, err)
					}
					delete(models[wi], i)
				} else {
					x := float64(rng.Intn(9) + 1)
					if err := vecs[wi].SetElement(x, i); err != nil {
						t.Fatalf("%s Set: %v", label, err)
					}
					models[wi][i] = x
				}
			}
		case 4: // eWiseMult (intersection)
			mul := BinaryOp[float64, float64, float64]{Name: "times", F: func(x, y float64) float64 { return x * y }}
			if err := EWiseMultV(vecs[wi], mk, acc, mul, vecs[ui], vecs[vi], desc); err != nil {
				t.Fatalf("%s EWiseMultV: %v", label, err)
			}
			tm := map[int]float64{}
			for k, uv := range models[ui] {
				if vv, ok := models[vi][k]; ok {
					tm[k] = uv * vv
				}
			}
			models[wi] = vecOracleWrite(models[wi], tm, n, stored, eff, useMask, scmp, accum, replace)
		}

		for k, v := range vecs {
			if v.shelved() {
				t.Fatalf("%s: vec %d holds an array on the pool's shelves", label, k)
			}
		}
		// Compare only every 7th step so the nonblocking queue runs deep.
		if step%7 != 6 && step != steps-1 {
			continue
		}
		for k := range vecs {
			got := vecModel(t, vecs[k])
			want := models[k]
			if len(got) != len(want) {
				t.Fatalf("%s: vec %d entries %v want %v", label, k, got, want)
			}
			for i, v := range want {
				if got[i] != v {
					t.Fatalf("%s: vec %d [%d] got %v want %v", label, k, i, got[i], v)
				}
			}
		}
	}
	return vecs
}
