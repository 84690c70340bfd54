package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"graphblas/internal/core"
	"graphblas/internal/leakcheck"
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
			store := newSharded(t, 16, shards)
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

// TestSnapshotTuplesRowMajor: Tuples hands back the composed snapshot's
// entries in strictly ascending (row, col) order at every shard count, read
// in the order returned, with no sort on the test's side. The edges sit in
// the middle rows only, so at four shards the leading and trailing row
// blocks are empty; they arrive in scrambled order, partly compacted and
// partly in the delta overlay.
func TestSnapshotTuplesRowMajor(t *testing.T) {
	const n = 40
	var edges [][2]int
	for i := 12; i < 28; i++ {
		for j := n - 1 - i%3; j >= 0; j -= 3 + i%5 {
			edges = append(edges, [2]int{i, j})
		}
	}
	rand.New(rand.NewSource(3)).Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			store := newSharded(t, n, shards)
			half := len(edges) / 2
			for k, part := range [][][2]int{edges[:half], edges[half:]} {
				b := stream.NewBatch[float64]()
				for _, e := range part {
					b.Insert(e[0], e[1], float64(e[0]*n+e[1]))
				}
				if err := store.Ingest(b); err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					if err := store.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			_, rows, cols, vals := snapshotTuples(t, store)
			if len(rows) != len(edges) {
				t.Fatalf("%d tuples, want %d", len(rows), len(edges))
			}
			for k := range rows {
				if vals[k] != float64(rows[k]*n+cols[k]) {
					t.Fatalf("tuple %d = (%d,%d,%g): value does not match its position", k, rows[k], cols[k], vals[k])
				}
				if k > 0 && (rows[k] < rows[k-1] || rows[k] == rows[k-1] && cols[k] <= cols[k-1]) {
					t.Fatalf("tuple %d (%d,%d) follows (%d,%d): not strictly row-major",
						k, rows[k], cols[k], rows[k-1], cols[k-1])
				}
			}
			if p := store.Plan(); shards == 4 && (p.Owner(rows[0]) == 0 || p.Owner(rows[len(rows)-1]) == shards-1) {
				t.Fatalf("rows %d..%d reach shard 0 or %d: the edge blocks are not empty", rows[0], rows[len(rows)-1], shards-1)
			}
		})
	}
}
