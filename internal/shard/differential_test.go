// Differential tests: the sharded store must be indistinguishable from a
// single engine. Tuple-level state, k-hop sets, stats, degrees, and NVals
// are required to be exactly equal at every shard count and strategy; PPR
// scores may differ only by cross-shard float regrouping (1e-9) with equal
// sweep counts. Both sides answer through serve.Backend.View — the one query
// path — so what is compared is the scatter-gather VxM against the engine's.
// The external test package lets the serving layer in without an import
// cycle.
package shard_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"graphblas/internal/core"
	"graphblas/internal/generate"
	"graphblas/internal/serve"
	"graphblas/internal/shard"
	"graphblas/internal/stream"
)

func TestMain(m *testing.M) {
	core.ResetForTesting()
	if err := core.Init(core.NonBlocking); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// shardCounts is the equivalence matrix every differential test sweeps.
var shardCounts = []int{1, 2, 4}

// strategies under test; Block is the deployment default.
var strategies = []shard.Strategy{shard.Block, shard.Hash}

// testGraph is the shared RMAT workload.
func testGraph() *generate.Graph {
	return generate.RMAT(7, 8, 42).Dedup(true)
}

// edgeBatch converts a graph to one insert batch.
func edgeBatch(g *generate.Graph) *stream.Batch[float64] {
	b := stream.NewBatch[float64]()
	for _, e := range g.Edges {
		b.Insert(e.Src, e.Dst, 1)
	}
	return b
}

// newOracle builds the single-engine reference store.
func newOracle(t *testing.T, n int, batches ...*stream.Batch[float64]) *serve.Engine {
	t.Helper()
	eng, err := serve.NewEngine(serve.Config{N: n})
	if err != nil {
		t.Fatalf("oracle engine: %v", err)
	}
	for _, b := range batches {
		if err := eng.Ingest(b); err != nil {
			t.Fatalf("oracle ingest: %v", err)
		}
	}
	return eng
}

// newSharded builds the sharded store with the same batches.
func newSharded(t *testing.T, n, shards int, st shard.Strategy, batches ...*stream.Batch[float64]) *shard.Store {
	t.Helper()
	store, err := shard.NewStore(shard.Config{N: n, Shards: shards, Strategy: st})
	if err != nil {
		t.Fatalf("NewStore(%d shards): %v", shards, err)
	}
	for _, b := range batches {
		if err := store.Ingest(b); err != nil {
			t.Fatalf("sharded ingest (%d shards): %v", shards, err)
		}
	}
	return store
}

// viewOf pins a fresh view through a serving backend.
func viewOf(t *testing.T, be serve.Backend) serve.View {
	t.Helper()
	v, stale, err := be.View(context.Background())
	if err != nil || stale {
		t.Fatalf("view: stale=%v err=%v", stale, err)
	}
	return v
}

// eachSharding runs f against a view of the graph at every shard count and
// strategy of the equivalence matrix.
func eachSharding(t *testing.T, g *generate.Graph, f func(name string, v serve.View)) {
	t.Helper()
	for _, strat := range strategies {
		for _, sc := range shardCounts {
			store := newSharded(t, g.N, sc, strat, edgeBatch(g))
			f(fmt.Sprintf("%v/%d shards", strat, sc), viewOf(t, serve.NewShardedBackend(store)))
		}
	}
}

// TestShardedIngestTupleEquivalence: after the same streamed batch sequence —
// inserts, overwrites, deletes, never compacted — the composed sharded state
// is tuple-identical to the single engine at shard counts 1, 2, 4 under both
// partition strategies.
func TestShardedIngestTupleEquivalence(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(7))
	var batches []*stream.Batch[float64]
	for bi := 0; bi < 6; bi++ {
		b := stream.NewBatch[float64]()
		for k := 0; k < 200; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				b.Delete(i, j)
			default:
				b.Insert(i, j, float64(rng.Intn(9)+1))
			}
		}
		batches = append(batches, b)
	}

	oracle := newOracle(t, n, batches...)
	osnap, stale, err := oracle.Snapshot(context.Background())
	if err != nil || stale {
		t.Fatalf("oracle snapshot: stale=%v err=%v", stale, err)
	}
	or, oc, ov, err := osnap.Mat.ExtractTuples()
	if err != nil {
		t.Fatal(err)
	}

	for _, strat := range strategies {
		for _, sc := range shardCounts {
			store := newSharded(t, n, sc, strat, batches...)
			snap, stale, err := store.Snapshot(context.Background())
			if err != nil || stale {
				t.Fatalf("%v/%d: snapshot stale=%v err=%v", strat, sc, stale, err)
			}
			sr, scc, sv, err := snap.Tuples()
			if err != nil {
				t.Fatal(err)
			}
			if len(sr) != len(or) {
				t.Fatalf("%v/%d shards: %d tuples, oracle has %d", strat, sc, len(sr), len(or))
			}
			if snap.NVals != len(or) {
				t.Fatalf("%v/%d shards: NVals %d, want %d", strat, sc, snap.NVals, len(or))
			}
			for k := range sr {
				if sr[k] != or[k] || scc[k] != oc[k] || sv[k] != ov[k] {
					t.Fatalf("%v/%d shards: tuple %d = (%d,%d,%g), oracle (%d,%d,%g)",
						strat, sc, k, sr[k], scc[k], sv[k], or[k], oc[k], ov[k])
				}
			}
		}
	}
}

// TestShardedKHopEquivalence: k-hop vertex sets are tuple-exact against the
// single-engine BFS for a sweep of sources and hop budgets.
func TestShardedKHopEquivalence(t *testing.T) {
	g := testGraph()
	oracle := viewOf(t, serve.NewEngineBackend(newOracle(t, g.N, edgeBatch(g))))
	ctx := context.Background()

	srcs := []int{0, 1, 17, g.N / 2, g.N - 1}
	hops := []int{0, 1, 2, 3}
	eachSharding(t, g, func(name string, v serve.View) {
		for _, src := range srcs {
			for _, k := range hops {
				want, err := oracle.KHop(ctx, src, k)
				if err != nil {
					t.Fatalf("oracle KHop(%d,%d): %v", src, k, err)
				}
				got, err := v.KHop(ctx, src, k)
				if err != nil {
					t.Fatalf("%s KHop(%d,%d): %v", name, src, k, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s KHop(%d,%d) = %v, want %v", name, src, k, got, want)
				}
			}
		}
	})
}

// TestKHopStopsAtClosure: on a graph whose reachable set holds a cycle the
// frontier never empties, so the hop loop must end when the visited set stops
// growing — an absurd hop budget answers as k = n does, on both backends,
// well inside the serving default timeout.
func TestKHopStopsAtClosure(t *testing.T) {
	g := generate.Cycle(48)
	views := map[string]serve.View{
		"engine":   viewOf(t, serve.NewEngineBackend(newOracle(t, g.N, edgeBatch(g)))),
		"2 shards": viewOf(t, serve.NewShardedBackend(newSharded(t, g.N, 2, shard.Block, edgeBatch(g)))),
	}
	for name, v := range views {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		want, err := v.KHop(ctx, 5, g.N)
		if err != nil {
			t.Fatalf("%s KHop(k=n): %v", name, err)
		}
		got, err := v.KHop(ctx, 5, 1<<30)
		cancel()
		if err != nil {
			t.Fatalf("%s KHop(k=1<<30): %v", name, err)
		}
		if len(want) != g.N || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s KHop(k=1<<30) = %v, want all %d vertices like k=n: %v", name, got, g.N, want)
		}
	}
}

// TestShardedStatsAndDegreeEquivalence: triangle/wedge statistics and
// per-vertex degrees are exact at every shard count.
func TestShardedStatsAndDegreeEquivalence(t *testing.T) {
	g := testGraph()
	oracle := viewOf(t, serve.NewEngineBackend(newOracle(t, g.N, edgeBatch(g))))
	ctx := context.Background()
	want, err := oracle.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	eachSharding(t, g, func(name string, v serve.View) {
		got, err := v.Stats(ctx)
		if err != nil {
			t.Fatalf("%s Stats: %v", name, err)
		}
		if got.Nodes != want.Nodes || got.Edges != want.Edges || got.Triangles != want.Triangles {
			t.Fatalf("%s: stats %+v, want %+v", name, got, want)
		}
		if math.Abs(got.Clustering-want.Clustering) > 1e-12 {
			t.Fatalf("%s: clustering %g, want %g", name, got.Clustering, want.Clustering)
		}
		for _, vertex := range []int{0, 5, g.N / 3, g.N - 1} {
			wd, err := oracle.Degree(ctx, vertex)
			if err != nil {
				t.Fatal(err)
			}
			gd, err := v.Degree(ctx, vertex)
			if err != nil {
				t.Fatalf("%s Degree(%d): %v", name, vertex, err)
			}
			if gd != wd {
				t.Fatalf("%s Degree(%d) = %d, want %d", name, vertex, gd, wd)
			}
		}
	})
}

// TestShardedPPREquivalence: personalized PageRank agrees with the single
// engine to summation tolerance (1e-9 per score) with identical sweep
// counts — the only sharded query where exactness is relaxed, and only
// because the coordinator's gather regroups cross-shard float additions.
func TestShardedPPREquivalence(t *testing.T) {
	g := testGraph()
	oracle := viewOf(t, serve.NewEngineBackend(newOracle(t, g.N, edgeBatch(g))))
	ctx := context.Background()

	for _, src := range []int{0, 3, g.N / 2} {
		want, wantIters, err := oracle.PPRTopK(ctx, src, 0, 0.85, 1e-6, 50)
		if err != nil {
			t.Fatalf("oracle PPR(%d): %v", src, err)
		}
		wantScores := make(map[int]float64, len(want))
		for _, r := range want {
			wantScores[r.Vertex] = r.Score
		}
		eachSharding(t, g, func(name string, v serve.View) {
			got, iters, err := v.PPRTopK(ctx, src, 0, 0.85, 1e-6, 50)
			if err != nil {
				t.Fatalf("%s PPR(%d): %v", name, src, err)
			}
			if iters != wantIters {
				t.Fatalf("%s PPR(%d): %d sweeps, oracle %d", name, src, iters, wantIters)
			}
			if len(got) != len(want) {
				t.Fatalf("%s PPR(%d): %d ranked, oracle %d", name, src, len(got), len(want))
			}
			for _, r := range got {
				w, ok := wantScores[r.Vertex]
				if !ok {
					t.Fatalf("%s PPR(%d): vertex %d not in oracle support", name, src, r.Vertex)
				}
				if math.Abs(r.Score-w) > 1e-9 {
					t.Fatalf("%s PPR(%d): score[%d] = %.15g, oracle %.15g (|Δ| > 1e-9)",
						name, src, r.Vertex, r.Score, w)
				}
			}
		})
	}
}

// TestShardedPPROpsPerSweepBounded: a sharded sweep hands each owning shard
// its slice of the share vector as one Build, so the ops a PPR defers grow
// with sweeps × shards and not with the vector's entries (hundreds per sweep
// when the slice went in one SetElement per entry).
func TestShardedPPROpsPerSweepBounded(t *testing.T) {
	g := testGraph()
	const shards = 2
	v := viewOf(t, serve.NewShardedBackend(newSharded(t, g.N, shards, shard.Block, edgeBatch(g))))
	before := core.StatsSnapshot().OpsEnqueued
	_, sweeps, err := v.PPRTopK(context.Background(), 0, 0, 0.85, 1e-6, 50)
	if err != nil {
		t.Fatal(err)
	}
	ops := core.StatsSnapshot().OpsEnqueued - before
	if limit := int64(8 * sweeps * shards); sweeps < 5 || ops > limit {
		t.Fatalf("%d-shard PPR enqueued %d ops over %d sweeps, want at most %d", shards, ops, sweeps, limit)
	}
}

// TestShardedSnapshotConsistency: a snapshot pinned before later writes keeps
// answering from its version; a fresh snapshot sees the writes; Version
// advances per acknowledged commit and epochs compose per shard.
func TestShardedSnapshotConsistency(t *testing.T) {
	const n = 32
	store := newSharded(t, n, 4, shard.Block)
	b1 := stream.NewBatch[float64]()
	b1.Insert(0, 1, 1)
	b1.Insert(31, 2, 1)
	if err := store.Ingest(b1); err != nil {
		t.Fatal(err)
	}
	s1, stale, err := store.Snapshot(context.Background())
	if err != nil || stale {
		t.Fatalf("snapshot 1: stale=%v err=%v", stale, err)
	}
	if s1.NVals != 2 {
		t.Fatalf("snapshot 1 NVals = %d, want 2", s1.NVals)
	}

	b2 := stream.NewBatch[float64]()
	b2.Insert(5, 6, 1)
	if err := store.Ingest(b2); err != nil {
		t.Fatal(err)
	}
	// The pinned snapshot must not see the later write.
	if s1.NVals != 2 {
		t.Fatalf("pinned snapshot mutated: NVals = %d", s1.NVals)
	}
	s2, stale, err := store.Snapshot(context.Background())
	if err != nil || stale {
		t.Fatalf("snapshot 2: stale=%v err=%v", stale, err)
	}
	if s2.NVals != 3 {
		t.Fatalf("snapshot 2 NVals = %d, want 3", s2.NVals)
	}
	if s2.Epoch() <= s1.Epoch() {
		t.Fatalf("epoch did not advance: %d then %d", s1.Epoch(), s2.Epoch())
	}
	if len(s2.Epochs) != 4 {
		t.Fatalf("composed snapshot has %d shard epochs, want 4", len(s2.Epochs))
	}
	// Same version → cached identity.
	s2b, _, err := store.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s2b != s2 {
		t.Fatal("same-version snapshot was rebuilt, not cached")
	}
}
