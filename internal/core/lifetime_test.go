package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphblas/internal/faults"
	"graphblas/internal/obs"
	"graphblas/internal/pool"
	"graphblas/internal/sparse"
)

// Store lifetimes: a superseded vector store's values go back to the pool
// once the operation that replaced it commits (Vector.snapshotState), and
// the next kernel that draws an array of that size writes into them. Its
// index list, which other stores may share, goes back when the last store
// holding it is released. These tests hold the rule to the stores that must
// never go back — one an iterator reads, one a failed operation restores,
// one another vector still uses, one sharing a list with any of them — by
// churning the pool after each overwrite, so that an array recycled too
// early is written over and the damage shows, in both modes.

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
// and the pool hands the superseded arrays out to other kernels. Two
// iterators open on one store both keep it: the one that ends first hands
// its hold back, the other still reads what it was opened on, and the
// store, superseded meanwhile, goes back to the pool when the last ends.
func TestIteratorKeepsItsStore(t *testing.T) {
	lifetimeModes(t, func(t *testing.T) {
		watch := assertQuiescent(t)
		rng := rand.New(rand.NewSource(3))
		const n = 64
		u := buildVector(t, n, 0.6, rng)
		other := buildVector(t, n, 0.3, rng)
		w, _ := NewVector[float64](n)
		scratch, _ := NewVector[float64](n)
		overwrite(t, w, u, -1) // w's values now come from the pool, its positions are u's
		wantIdx, wantVal, err := w.ExtractTuples()
		if err != nil {
			t.Fatal(err)
		}
		it, err := VectorIterate(w) // pins a store that shares u's list
		if err != nil {
			t.Fatal(err)
		}
		first, err := VectorIterate(w) // a second hold on the same store
		if err != nil {
			t.Fatal(err)
		}
		for r := 2; r < 20; r++ {
			if r == 10 { // the first iterator ends half way through the churn
				drain(t, first, wantIdx, wantVal)
			}
			overwrite(t, w, u, float64(r))
			overwrite(t, scratch, w, -1)
			// Supersede the list's owner and every other sharer: only the
			// pinned store holds it now.
			overwrite(t, u, other, float64(r))
			churnIdx()
		}
		recycled := obs.StoresRecycled.Value()
		drain(t, it, wantIdx, wantVal)
		if obs.StoresRecycled.Value() != recycled+1 {
			t.Fatal("the store the last iterator handed back did not go back to the pool")
		}
		if _, _, ok := it.Next(); ok {
			t.Fatal("an iterator yielded an entry after its end")
		}
		if obs.StoresRecycled.Value() == 0 {
			t.Fatal("no store was recycled: the overwrites did not exercise the free list")
		}
		watch(u, other, w, scratch)
	})
}

// drain reads an iterator to its end and checks that it yields exactly the
// entries it was opened on.
func drain(t *testing.T, it *VectorIterator[float64], wantIdx []int, wantVal []float64) {
	t.Helper()
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
		churnIdx()
		if got := vecBits(w); got != before {
			t.Fatalf("after the pool was churned, the restored vector holds %s, held %s", got, before)
		}
		// The restored store shares u's positions with the stores the loop
		// above left in scratch; superseding u and scratch leaves the list
		// to it alone.
		other := buildVector(t, n, 0.2, rng)
		overwrite(t, u, other, 1)
		overwrite(t, scratch, other, 2)
		churnIdx()
		if got := vecBits(w); got != before {
			t.Fatalf("after the list's other holders went, the restored vector holds %s, held %s", got, before)
		}
		watch(u, w, scratch, other)
	})
}

// TestRecycledStoresLeaveOthersIntact: the object methods that build on or
// copy a store — Resize, SetElement with its pending merge, Dup, Clear —
// and the operations whose result shares an input's index list run on
// vectors whose stores are recycled around them, and every vector keeps
// exactly its model's content; a shared list goes back to the pool only
// with its last holder.
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
		var checks []func(label string) // vectors outside the float64 models
		step := func(label string) {
			t.Helper()
			overwrite(t, scratch, src, 7) // draw whatever was just recycled
			if err := Wait(); err != nil {
				t.Fatalf("%s: Wait: %v", label, err)
			}
			churnIdx()
			for v, want := range models {
				wantVec(t, v, want, label)
			}
			for _, check := range checks {
				check(label)
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

		// An index list shared across domains, as in flush-small's chain:
		// MxV over a matrix with empty rows draws a partial result's list,
		// an apply into int64 shares it, an apply back into float64 shares
		// it again. Superseding the owner, then the int64 sharer, leaves
		// the list to the last sharer.
		am, _ := newTestMatrix(t, rng, n, n, 0.05)
		m, _ := NewVector[float64](n)
		iv, _ := NewVector[int64](n)
		f, _ := NewVector[float64](n)
		toInt := UnaryOp[float64, int64]{Name: "toInt", F: func(x float64) int64 { return int64(x * 4) }}
		toFloat := UnaryOp[int64, float64]{Name: "toFloat", F: func(x int64) float64 { return float64(x) / 2 }}
		if err := MxV(m, NoMaskV, NoAccum[float64](), plusTimesF64(t), am, src, nil); err != nil {
			t.Fatal(err)
		}
		if err := ApplyV(iv, NoMaskV, NoAccum[int64](), toInt, m, nil); err != nil {
			t.Fatal(err)
		}
		if err := ApplyV(f, NoMaskV, NoAccum[float64](), toFloat, iv, nil); err != nil {
			t.Fatal(err)
		}
		models[m] = vecModel(t, m)
		if len(models[m]) == 0 || len(models[m]) == n {
			t.Fatalf("MxV stored %d of %d positions: the chain needs a partial result", len(models[m]), n)
		}
		ivModel := map[int]int64{}
		models[f] = map[int]float64{}
		for i, x := range models[m] {
			ivModel[i] = int64(x * 4)
			models[f][i] = float64(ivModel[i]) / 2
		}
		checks = append(checks, func(label string) {
			t.Helper()
			idx, val, err := iv.ExtractTuples()
			if err != nil || len(idx) != len(ivModel) {
				t.Fatalf("%s: int64 sharer holds %v %v (%v), want %v", label, idx, val, err, ivModel)
			}
			for k, i := range idx {
				if want, ok := ivModel[i]; !ok || val[k] != want {
					t.Fatalf("%s: int64 sharer holds %v %v, want %v", label, idx, val, ivModel)
				}
			}
		})
		step("mxv chain")
		overwrite(t, m, src, 13)
		models[m] = scaled(srcModel, 13)
		step("mxv chain, owner superseded")
		if err := ApplyV(iv, NoMaskV, NoAccum[int64](), toInt, src, nil); err != nil {
			t.Fatal(err)
		}
		ivModel = map[int]int64{}
		for i, x := range srcModel {
			ivModel[i] = int64(x * 4)
		}
		step("mxv chain, int64 sharer superseded")

		// One owner, shared by eWiseMult with a full operand, whole-vector
		// assign, Dup and a select that keeps everything (eWiseAdd with a
		// full operand takes the full side's identity list, which nothing
		// recycles). The owner goes first, then the sharers one by one;
		// only the last one's release shelves the list.
		full := seqVector(t, n, 1)
		fullModel := vecModel(t, full)
		p, pModel := randVecModel(t, rng, n, 0.5)
		times := BinaryOp[float64, float64, float64]{Name: "times", F: func(x, y float64) float64 { return x * y }}
		keepAll := IndexUnaryOp[float64, bool]{Name: "all", F: func(float64, int, int) bool { return true }}
		em, _ := NewVector[float64](n)
		ea, _ := NewVector[float64](n)
		av, _ := NewVector[float64](n)
		sv, _ := NewVector[float64](n)
		if err := EWiseMultV(em, NoMaskV, NoAccum[float64](), times, p, full, nil); err != nil {
			t.Fatal(err)
		}
		if err := EWiseAddV(ea, NoMaskV, NoAccum[float64](), plusF64(), p, full, nil); err != nil {
			t.Fatal(err)
		}
		if err := AssignVector(av, NoMaskV, NoAccum[float64](), p, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := SelectV(sv, NoMaskV, NoAccum[float64](), keepAll, p, nil); err != nil {
			t.Fatal(err)
		}
		dp, err := p.Dup()
		if err != nil {
			t.Fatal(err)
		}
		if err := Wait(); err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		list := p.data.Idx
		p.mu.Unlock()
		models[p], models[em], models[av], models[sv], models[dp] = pModel, map[int]float64{}, pModel, pModel, pModel
		models[ea] = scaled(fullModel, 1)
		for i, x := range pModel {
			models[em][i] = x * fullModel[i]
			models[ea][i] += x
		}
		step("sharers")
		overwrite(t, p, src, 17)
		models[p] = scaled(srcModel, 17)
		step("shared list's owner superseded")
		for k, sharer := range []*Vector[float64]{em, av, sv, dp} {
			if pool.Holds(list) {
				t.Fatalf("the shared list went back to the pool with %d sharers left", 4-k)
			}
			overwrite(t, sharer, src, float64(k+19))
			models[sharer] = scaled(srcModel, float64(k+19))
			step(fmt.Sprintf("sharer %d superseded", k))
		}
		if !pool.Holds(list) {
			t.Fatal("the shared list did not go back to the pool when its last holder was released")
		}

		if obs.StoresRecycled.Value() == 0 {
			t.Fatal("no store was recycled")
		}
		watch(src, a, b, c, d, scratch, m, iv, f, full, p, em, ea, av, sv, dp)
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

		// Freeing a vector lets go of its store, unless an iterator pinned
		// it.
		v := buildVector(t, n, 0.5, rand.New(rand.NewSource(4)))
		pinned, _ := NewVector[float64](n)
		overwrite(t, pinned, v, 2)
		it, err := VectorIterate(pinned)
		if err != nil {
			t.Fatal(err)
		}
		stores := map[*Vector[float64]]*sparse.Vec[float64]{}
		for _, x := range []*Vector[float64]{v, pinned} {
			x.mu.Lock()
			stores[x] = x.data
			x.mu.Unlock()
			if err := x.Free(); err != nil {
				t.Fatal(err)
			}
		}
		if !pool.Holds(stores[v].Val) {
			t.Fatal("a freed vector's values did not go back to the pool")
		}
		// v's positions stay: the pinned store shares them.
		if pool.Holds(stores[pinned].Val) || pool.Holds(stores[pinned].Idx) || pool.Holds(stores[v].Idx) {
			t.Fatal("freeing a vector recycled the store an iterator pinned")
		}
		if _, _, ok := it.Next(); !ok {
			t.Fatal("the pinned store's iterator is empty")
		}
	})
}

// TestSharersSupersededConcurrently: under the DAG scheduler, one flush
// supersedes an index list's owner and two stores sharing it in three
// independent branches, so their releases race. The list goes back to the
// pool exactly when the last of them lets go, and every vector keeps its
// model. The CI race job runs it with -race.
func TestSharersSupersededConcurrently(t *testing.T) {
	withDag(t, func() {
		watch := assertQuiescent(t)
		rng := rand.New(rand.NewSource(21))
		const n = 40
		before := StatsSnapshot().ParallelFlushes
		for round := 0; round < 20; round++ {
			u, uModel := randVecModel(t, rng, n, 0.5)
			srcs := make([]*Vector[float64], 3)
			srcModels := make([]map[int]float64, 3)
			for k := range srcs {
				srcs[k], srcModels[k] = randVecModel(t, rng, n, 0.4)
			}
			s1, _ := NewVector[float64](n)
			s2, _ := NewVector[float64](n)
			overwrite(t, s1, u, 2)
			overwrite(t, s2, u, 3)
			u.mu.Lock()
			list := u.data.Idx
			u.mu.Unlock()
			if pool.Holds(list) {
				t.Fatalf("round %d: the list went back while three stores held it", round)
			}
			holders := []*Vector[float64]{u, s1, s2}
			for k, v := range holders {
				if err := ApplyV(v, NoMaskV, NoAccum[float64](), scaleOp(float64(k+5)), srcs[k], nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := Wait(); err != nil {
				t.Fatal(err)
			}
			if len(uModel) > 0 && len(uModel) < n && !pool.Holds(list) {
				t.Fatalf("round %d: the list did not go back when its three holders were superseded", round)
			}
			churnIdx()
			for k, v := range holders {
				want := map[int]float64{}
				for i, x := range srcModels[k] {
					want[i] = float64(k+5) * x
				}
				wantVec(t, v, want, fmt.Sprintf("round %d holder %d", round, k))
				wantVec(t, srcs[k], srcModels[k], fmt.Sprintf("round %d source %d", round, k))
			}
			watch(u, s1, s2, srcs[0], srcs[1], srcs[2])
		}
		if StatsSnapshot().ParallelFlushes == before {
			t.Fatal("no flush ran on the DAG scheduler")
		}
	})
}
