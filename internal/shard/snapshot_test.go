package shard_test

import (
	"context"
	"fmt"
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/leakcheck"
	"graphblas/internal/shard"
	"graphblas/internal/stream"
)

// TestSnapshotIgnoresOtherRequestsWork: composing a snapshot completes no
// engine work of other requests. With an unrelated operation pending in the
// program's context — one whose operator panics — a snapshot taken right
// after an acknowledged write is fresh, and the panic stays with the
// operation's owner, whose Wait reports it.
func TestSnapshotIgnoresOtherRequestsWork(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			leakcheck.AssertQuiescent(t)
			store := newSharded(t, 16, shards, shard.Block)
			b := stream.NewBatch[float64]()
			b.Insert(1, 2, 1)
			b.Insert(9, 3, 1)
			if err := store.Ingest(b); err != nil {
				t.Fatal(err)
			}

			u, _ := core.NewVector[float64](4)
			w, _ := core.NewVector[float64](4)
			if err := u.SetElement(1, 0); err != nil {
				t.Fatal(err)
			}
			boom := core.UnaryOp[float64, float64]{Name: "boom", F: func(float64) float64 { panic("operator bug") }}
			if err := core.ApplyV(w, core.NoMaskV, core.NoAccum[float64](), boom, u, nil); err != nil {
				t.Fatal(err)
			}

			snap, stale, err := store.Snapshot(context.Background())
			if err != nil || stale {
				t.Fatalf("snapshot after an acknowledged write: stale=%v err=%v", stale, err)
			}
			if snap.NVals != 2 {
				t.Fatalf("snapshot holds %d entries, want 2", snap.NVals)
			}
			if err := core.Wait(); core.InfoOf(err) != core.PanicInfo {
				t.Fatalf("the pending operation's owner got %v from Wait, want its Panic error", err)
			}
		})
	}
}
