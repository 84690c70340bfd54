package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/pool"
)

// Store lifetimes: a superseded vector store's values go back to the pool
// once the operation that replaced it commits (Vector.snapshotState), and
// the next kernel that draws an array of that size writes into them. These
// tests hold the rule to the stores that must never go back — one an
// iterator reads, one a failed operation restores, one another vector still
// uses — by churning the pool after each overwrite, so that an array
// recycled too early is written over and the damage shows, in both modes.

// lifetimeModes runs f once per execution mode, in a fresh context.
func lifetimeModes(t *testing.T, f func(t *testing.T)) {
	for _, mode := range []Mode{Blocking, NonBlocking} {
		t.Run(mode.String(), func(t *testing.T) {
			withMode(t, mode, func() { f(t) })
		})
	}
}

// vecBits is a vector's committed content, read from its store without
// forcing or merging anything, so that a rolled-back (invalid) output can be
// compared too.
func vecBits(v *Vector[float64]) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	bits := make([]uint64, len(v.data.Val))
	for k, x := range v.data.Val {
		bits[k] = math.Float64bits(x)
	}
	return fmt.Sprint(v.data.N, v.data.Idx, bits, len(v.pending))
}

// scaleOp multiplies by c.
func scaleOp(c float64) UnaryOp[float64, float64] {
	return UnaryOp[float64, float64]{Name: "scale", F: func(x float64) float64 { return c * x }}
}

// overwrite runs w = c·u and completes it.
func overwrite(t *testing.T, w, u *Vector[float64], c float64) {
	t.Helper()
	if err := ApplyV(w, NoMaskV, NoAccum[float64](), scaleOp(c), u, nil); err != nil {
		t.Fatalf("ApplyV: %v", err)
	}
	if err := Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestIteratorKeepsItsStore: an iterator opened on a vector keeps the
// content it was opened on while the vector is overwritten again and again
// and the pool hands the superseded arrays out to other kernels.
func TestIteratorKeepsItsStore(t *testing.T) {
	lifetimeModes(t, func(t *testing.T) {
		watch := assertQuiescent(t)
		rng := rand.New(rand.NewSource(3))
		const n = 64
		u := buildVector(t, n, 0.6, rng)
		w, _ := NewVector[float64](n)
		scratch, _ := NewVector[float64](n)
		overwrite(t, w, u, -1) // w's values now come from the pool
		wantIdx, wantVal, err := w.ExtractTuples()
		if err != nil {
			t.Fatal(err)
		}
		it, err := VectorIterate(w)
		if err != nil {
			t.Fatal(err)
		}
		for r := 2; r < 20; r++ {
			overwrite(t, w, u, float64(r))
			overwrite(t, scratch, w, -1)
		}
		k := 0
		for i, x, ok := it.Next(); ok; i, x, ok = it.Next() {
			if k >= len(wantIdx) || i != wantIdx[k] || math.Float64bits(x) != math.Float64bits(wantVal[k]) {
				t.Fatalf("iterator entry %d = (%d, %v), opened on %v %v", k, i, x, wantIdx, wantVal)
			}
			k++
		}
		if k != len(wantIdx) {
			t.Fatalf("iterator yielded %d entries, opened on %d", k, len(wantIdx))
		}
		if obs.StoresRecycled.Value() == 0 {
			t.Fatal("no store was recycled: the overwrites did not exercise the free list")
		}
		watch(u, w, scratch)
	})
}

// TestFailedOverwriteRestoresRecycledVector: once w has been overwritten
// often enough that its values and its predecessors' come from the pool, a
// kernel that fails half way through its result — a faulty operator — and
// an operation the fault plan fails both leave w holding its prior content
// bit for bit, and that content survives the pool being churned after.
func TestFailedOverwriteRestoresRecycledVector(t *testing.T) {
	lifetimeModes(t, func(t *testing.T) {
		watch := assertQuiescent(t)
		rng := rand.New(rand.NewSource(5))
		const n = 64
		u := buildVector(t, n, 0.7, rng)
		w, _ := NewVector[float64](n)
		scratch, _ := NewVector[float64](n)
		for r := 1; r <= 5; r++ {
			overwrite(t, w, u, float64(r)+0.25)
			overwrite(t, scratch, w, -1)
		}
		before := vecBits(w)
		calls := 0
		boom := UnaryOp[float64, float64]{Name: "boom", F: func(x float64) float64 {
			if calls++; calls == 3 {
				panic("operator bug")
			}
			return -x
		}}
		err := ApplyV(w, NoMaskV, NoAccum[float64](), boom, u, nil)
		if err == nil {
			err = Wait()
		}
		if InfoOf(err) != PanicInfo {
			t.Fatalf("faulty operator: %v", err)
		}
		if got := vecBits(w); got != before {
			t.Fatalf("panicked overwrite left %s, held %s", got, before)
		}
		withFaults(t, 1, faults.Rule{Site: "ApplyV", Kind: faults.OOM, Times: 1})
		err = ApplyV(w, NoMaskV, NoAccum[float64](), scaleOp(9), u, nil)
		if err == nil {
			err = Wait()
		}
		if InfoOf(err) != OutOfMemory {
			t.Fatalf("injected fault: %v", err)
		}
		for r := 0; r < 5; r++ {
			overwrite(t, scratch, u, float64(r))
		}
		if got := vecBits(w); got != before {
			t.Fatalf("after the pool was churned, the restored vector holds %s, held %s", got, before)
		}
		watch(u, w, scratch)
	})
}

// TestRecycledStoresLeaveOthersIntact: the object methods that build on or
// copy a store — Resize, SetElement with its pending merge, Dup, Clear —
// run on vectors whose stores are recycled around them, and every vector
// keeps exactly its model's content.
func TestRecycledStoresLeaveOthersIntact(t *testing.T) {
	lifetimeModes(t, func(t *testing.T) {
		watch := assertQuiescent(t)
		rng := rand.New(rand.NewSource(9))
		const n = 48
		src, srcModel := randVecModel(t, rng, n, 0.7)
		a, _ := NewVector[float64](n)
		b, _ := NewVector[float64](n)
		c, _ := NewVector[float64](n)
		scratch, _ := NewVector[float64](n)
		models := map[*Vector[float64]]map[int]float64{src: srcModel}
		scaled := func(m map[int]float64, f float64) map[int]float64 {
			out := map[int]float64{}
			for i, x := range m {
				out[i] = f * x
			}
			return out
		}
		step := func(label string) {
			t.Helper()
			overwrite(t, scratch, src, 7) // draw whatever was just recycled
			if err := Wait(); err != nil {
				t.Fatalf("%s: Wait: %v", label, err)
			}
			for v, want := range models {
				wantVec(t, v, want, label)
			}
		}

		overwrite(t, a, src, 2)
		overwrite(t, b, a, 3)
		overwrite(t, c, b, -1)
		models[a], models[b], models[c] = scaled(srcModel, 2), scaled(srcModel, 6), scaled(srcModel, -6)
		step("overwrites")

		// Resize trims a copy: the store it supersedes is recycled, and a's
		// neighbors keep theirs.
		if err := a.Resize(n / 2); err != nil {
			t.Fatal(err)
		}
		for i := range models[a] {
			if i >= n/2 {
				delete(models[a], i)
			}
		}
		step("resize")

		// Point updates sit pending until a reader merges them into a new
		// store outside any operation's commit; the next overwrite then
		// supersedes the merged one.
		if err := b.SetElement(100, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.RemoveElement(2); err != nil {
			t.Fatal(err)
		}
		models[b][1] = 100
		delete(models[b], 2)
		if err := ApplyV(c, NoMaskV, NoAccum[float64](), scaleOp(1), b, nil); err != nil {
			t.Fatal(err)
		}
		models[c] = scaled(models[b], 1)
		step("pending merge")
		overwrite(t, b, src, 5)
		models[b] = scaled(srcModel, 5)
		step("overwrite after merge")

		// Dup shares c's positions and copies its values; overwriting c then
		// recycles c's values, not the copy's.
		d, err := c.Dup()
		if err != nil {
			t.Fatal(err)
		}
		models[d] = scaled(models[c], 1)
		overwrite(t, c, src, 11)
		models[c] = scaled(srcModel, 11)
		step("dup then overwrite")

		// Clear recycles d's store; c, whose positions d shared, is intact.
		if err := d.Clear(); err != nil {
			t.Fatal(err)
		}
		models[d] = map[int]float64{}
		step("clear")

		if obs.StoresRecycled.Value() == 0 {
			t.Fatal("no store was recycled")
		}
		watch(src, a, b, c, d, scratch)
	})
}

// TestSupersededStoreValuesGoBack pins where the values of an overwritten
// store go: back to the pool when the overwrite commits, not when it fails,
// and not when the store is still the vector's own.
func TestSupersededStoreValuesGoBack(t *testing.T) {
	withMode(t, NonBlocking, func() {
		const n = 32
		u := seqVector(t, n, 1)
		w, _ := NewVector[float64](n)
		overwrite(t, w, u, 2)
		w.mu.Lock()
		prev := w.data
		w.mu.Unlock()
		if err := w.SetElement(5, 3); err != nil { // keeps the store
			t.Fatal(err)
		}
		if err := Wait(); err != nil {
			t.Fatal(err)
		}
		if pool.Holds(prev.Val) {
			t.Fatal("a store the vector still holds was recycled")
		}
		overwrite(t, w, u, 3)
		if !pool.Holds(prev.Val) {
			t.Fatal("the superseded store's values did not go back to the pool")
		}
	})
}
