// Fault-injection tests for the shard coordinator: the shard.kernel.* sites
// must fail cleanly (reject-without-applying on the write path, transient
// error on the read path), and a partial per-shard commit failure must leave
// the store frozen-but-convergent — the redo queue replays the missing
// sub-batches before anything newer is acknowledged, and the final state is
// what one shard would hold after the same acknowledged sequence — while a
// commit that failed on every shard it touched leaves nothing behind at all.
package shard_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/faults"
	"graphblas/internal/leakcheck"
	"graphblas/internal/serve"
	"graphblas/internal/shard"
	"graphblas/internal/stream"
)

// TestShardRouteFaultCleanReject: a fault at shard.kernel.route rejects the
// batch before any shard sees it — version unchanged, nothing frozen, no
// redo debt — and the same batch applies cleanly once the fault passes.
func TestShardRouteFaultCleanReject(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	store := newSharded(t, 32, 4)
	v0 := store.Version()

	faults.Configure(1, faults.Rule{Site: "shard.kernel.route", Kind: faults.KernelErr, Times: 1})
	defer faults.Disable()

	b := stream.NewBatch[float64]()
	b.Insert(1, 2, 1)
	b.Insert(30, 3, 1)
	err := store.Ingest(b)
	if err == nil {
		t.Fatal("faulted route did not error")
	}
	if core.InfoOf(err) != core.PanicInfo {
		t.Fatalf("route fault class = %v, want PanicInfo", core.InfoOf(err))
	}
	if errors.Is(err, shard.ErrIndeterminate) {
		t.Fatal("route fault misclassified as indeterminate — the batch never reached a shard")
	}
	if store.Version() != v0 || store.Frozen() || store.RedoDepth() != 0 {
		t.Fatalf("clean reject left state: version %d→%d frozen=%v redo=%d",
			v0, store.Version(), store.Frozen(), store.RedoDepth())
	}

	if err := store.Ingest(b); err != nil {
		t.Fatalf("retry after fault window: %v", err)
	}
	snap, _, err := store.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.NVals != 2 {
		t.Fatalf("NVals = %d after clean retry, want 2", snap.NVals)
	}
}

// TestShardGatherFaultTransient: a fault at shard.kernel.gather surfaces as
// a transient kernel error on the query path and the same query succeeds
// once the fault passes — the contract the serving retry ladder relies on.
func TestShardGatherFaultTransient(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	b := stream.NewBatch[float64]()
	b.Insert(0, 1, 1)
	b.Insert(1, 2, 1)
	b.Insert(2, 3, 1)
	v := viewOf(t, serve.NewShardedBackend(newSharded(t, 16, 4, b)))

	faults.Configure(2, faults.Rule{Site: "shard.kernel.gather", Kind: faults.KernelErr, Times: 1})
	defer faults.Disable()

	if _, err := v.KHop(context.Background(), 0, 3); err == nil {
		t.Fatal("faulted gather did not error")
	} else if core.InfoOf(err) != core.PanicInfo {
		t.Fatalf("gather fault class = %v, want PanicInfo", core.InfoOf(err))
	}
	got, err := v.KHop(context.Background(), 0, 3)
	if err != nil {
		t.Fatalf("KHop after fault window: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("KHop = %v, want the 4-vertex chain", got)
	}
}

// TestShardGatherGovernorOOM: the allocation governor denies an oversized
// partial-result gather with an OutOfMemory-class error before the
// accumulation runs.
func TestShardGatherGovernorOOM(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	b := stream.NewBatch[float64]()
	for i := 0; i < 15; i++ {
		b.Insert(i, i+1, 1)
	}
	v := viewOf(t, serve.NewShardedBackend(newSharded(t, 16, 2, b)))

	prev := faults.SetAllocBudget(8)
	defer faults.SetAllocBudget(prev)

	_, err := v.KHop(context.Background(), 0, 15)
	if err == nil {
		t.Fatal("governed gather did not error")
	}
	if core.InfoOf(err) != core.OutOfMemory {
		t.Fatalf("governor fault class = %v, want OutOfMemory", core.InfoOf(err))
	}
}

// TestShardTotalFailureCleanReject: when every shard a batch touches rolls it
// back — with one shard, every failure — no shard holds any of it, so the
// store rejects it like a routing fault: the cause surfaces unwrapped, reads
// are not frozen, nothing queues for redo, the version stands, and the same
// batch applies once the fault passes.
func TestShardTotalFailureCleanReject(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	for _, shards := range []int{1, 2} {
		store := newSharded(t, 32, shards)
		v0 := store.Version()
		b := stream.NewBatch[float64]()
		b.Insert(1, 2, 1)
		b.Insert(30, 3, 1)

		faults.Configure(1, faults.Rule{Site: "stream.kernel.absorb", Kind: faults.KernelErr})
		err := store.Ingest(b)
		faults.Disable()
		if core.InfoOf(err) != core.PanicInfo || errors.Is(err, shard.ErrIndeterminate) {
			t.Fatalf("%d shards: total failure = %v, want the bare kernel error", shards, err)
		}
		if store.Version() != v0 || store.Frozen() || store.RedoDepth() != 0 {
			t.Fatalf("%d shards: clean reject left state: version %d→%d frozen=%v redo=%d",
				shards, v0, store.Version(), store.Frozen(), store.RedoDepth())
		}
		if err := store.Ingest(b); err != nil {
			t.Fatalf("%d shards: retry after fault window: %v", shards, err)
		}
		if snap, _, _, _ := snapshotTuples(t, store); snap.NVals != 2 {
			t.Fatalf("%d shards: NVals = %d after clean retry, want 2", shards, snap.NVals)
		}
	}
}

// TestShardPartialFailureRedoConvergence drives randomized absorb faults
// through the all-shards-or-none commit: unacknowledged batches freeze the
// store (reads stay pinned to the last acknowledged composed snapshot) and
// queue their failed sub-batches for redo; once faults stop, the next write
// drains the redo queue first, and the final state is tuple-identical to a
// one-shard store that applied every batch that entered the store, in order.
func TestShardPartialFailureRedoConvergence(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	const n = 48
	store := newSharded(t, n, 4)

	// Seed state + a baseline snapshot for the frozen-reads check.
	seed := stream.NewBatch[float64]()
	for i := 0; i < n-1; i++ {
		seed.Insert(i, i+1, 1)
	}
	if err := store.Ingest(seed); err != nil {
		t.Fatal(err)
	}
	base, stale, err := store.Snapshot(context.Background())
	if err != nil || stale {
		t.Fatalf("baseline snapshot: stale=%v err=%v", stale, err)
	}

	// Batches the store actually accepted (acknowledged or indeterminate) —
	// the sequence the oracle must replay. Clean rejects are excluded: the
	// store guarantees they touched nothing.
	entered := []*stream.Batch[float64]{seed}

	faults.Configure(99, faults.Rule{Site: "stream.kernel.absorb", Kind: faults.KernelErr, Prob: 0.5})
	rng := rand.New(rand.NewSource(4))
	sawIndeterminate := false
	for bi := 0; bi < 12; bi++ {
		b := stream.NewBatch[float64]()
		for k := 0; k < 40; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if rng.Intn(5) == 0 {
				b.Delete(i, j)
			} else {
				b.Insert(i, j, float64(rng.Intn(7)+1))
			}
		}
		err := store.Ingest(b)
		switch {
		case err == nil:
			entered = append(entered, b)
		case errors.Is(err, shard.ErrIndeterminate):
			sawIndeterminate = true
			entered = append(entered, b)
			if !store.Frozen() {
				t.Fatal("indeterminate ingest left the store unfrozen")
			}
			// Frozen reads degrade to the last acknowledged composition.
			snap, stale, serr := store.Snapshot(context.Background())
			if serr != nil {
				t.Fatalf("frozen snapshot: %v", serr)
			}
			if !stale {
				t.Fatal("frozen store served a fresh snapshot")
			}
			if snap.Epoch() < base.Epoch() {
				t.Fatalf("stale fallback went backwards: %d < %d", snap.Epoch(), base.Epoch())
			}
		case errors.Is(err, shard.ErrRedoBlocked), core.InfoOf(err) == core.PanicInfo:
			// Clean reject: the redo drain itself faulted before this batch
			// was routed anywhere, or every owning shard rolled it back. Not
			// part of the oracle sequence.
		default:
			t.Fatalf("unexpected ingest error: %v", err)
		}
	}
	faults.Disable()
	if !sawIndeterminate {
		t.Fatal("fault plan never produced a partial failure; raise Prob or batches")
	}

	// First clean write drains the redo queue and unfreezes.
	final := stream.NewBatch[float64]()
	final.Insert(0, n-1, 5)
	if err := store.Ingest(final); err != nil {
		t.Fatalf("post-fault ingest: %v", err)
	}
	entered = append(entered, final)
	if store.Frozen() || store.RedoDepth() != 0 {
		t.Fatalf("store did not converge: frozen=%v redo=%d", store.Frozen(), store.RedoDepth())
	}

	_, or, oc, ov := snapshotTuples(t, newOracle(t, n, entered...))
	_, sr, sc, sv := snapshotTuples(t, store)
	if len(sr) != len(or) {
		t.Fatalf("converged store holds %d tuples, oracle %d", len(sr), len(or))
	}
	for k := range sr {
		if sr[k] != or[k] || sc[k] != oc[k] || sv[k] != ov[k] {
			t.Fatalf("tuple %d = (%d,%d,%g), oracle (%d,%d,%g)",
				k, sr[k], sc[k], sv[k], or[k], oc[k], ov[k])
		}
	}
}
