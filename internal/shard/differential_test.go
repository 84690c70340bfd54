// Differential tests: the store must be indistinguishable across shard
// counts. The one-shard store — whose VxM is the engine's own, and which the
// serving tests hold to refalgo — is the oracle; tuple-level state, k-hop
// sets, stats, degrees, and NVals are required to be exactly equal to it at
// shards {2,4} under both strategies; PPR scores may differ only by
// cross-shard float regrouping (1e-9) with equal sweep counts. Both sides
// answer through serve.Backend.View — the one query path — so what is
// compared is the scatter-gather VxM against the engine's. The external test
// package lets the serving layer in without an import cycle.
package shard_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"graphblas/internal/core"
	"graphblas/internal/faults"
	"graphblas/internal/generate"
	"graphblas/internal/pool"
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

// shardCounts is the equivalence matrix every differential test sweeps
// against the one-shard oracle.
var shardCounts = []int{2, 4}

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

// newOracle builds the one-shard reference store.
func newOracle(t *testing.T, n int, batches ...*stream.Batch[float64]) *shard.Store {
	t.Helper()
	return newSharded(t, n, 1, shard.Block, batches...)
}

// snapshotTuples pins a fresh snapshot and gathers its row-major tuples.
func snapshotTuples(t *testing.T, store *shard.Store) (*shard.Snapshot, []int, []int, []float64) {
	t.Helper()
	snap, stale, err := store.Snapshot(context.Background())
	if err != nil || stale {
		t.Fatalf("snapshot: stale=%v err=%v", stale, err)
	}
	r, c, v, err := snap.Tuples()
	if err != nil {
		t.Fatal(err)
	}
	return snap, r, c, v
}

// newSharded builds a store of the given width with the same batches.
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
// inserts, overwrites, deletes, never compacted — the composed state at shard
// counts 1, 2, 4 under both partition strategies is tuple-identical to what
// the update stream itself defines: the last write per edge wins.
func TestShardedIngestTupleEquivalence(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(7))
	var batches []*stream.Batch[float64]
	model := map[[2]int]float64{}
	for bi := 0; bi < 6; bi++ {
		b := stream.NewBatch[float64]()
		for k := 0; k < 200; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				b.Delete(i, j)
				delete(model, [2]int{i, j})
			default:
				w := float64(rng.Intn(9) + 1)
				b.Insert(i, j, w)
				model[[2]int{i, j}] = w
			}
		}
		batches = append(batches, b)
	}
	want := make([][2]int, 0, len(model))
	for e := range model {
		want = append(want, e)
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a][0] != want[b][0] {
			return want[a][0] < want[b][0]
		}
		return want[a][1] < want[b][1]
	})

	for _, strat := range strategies {
		for _, sc := range []int{1, 2, 4} {
			snap, sr, scc, sv := snapshotTuples(t, newSharded(t, n, sc, strat, batches...))
			if len(sr) != len(want) || snap.NVals != len(want) {
				t.Fatalf("%v/%d shards: %d tuples, NVals %d, model has %d", strat, sc, len(sr), snap.NVals, len(want))
			}
			for k, e := range want {
				if sr[k] != e[0] || scc[k] != e[1] || sv[k] != model[e] {
					t.Fatalf("%v/%d shards: tuple %d = (%d,%d,%g), model (%d,%d,%g)",
						strat, sc, k, sr[k], scc[k], sv[k], e[0], e[1], model[e])
				}
			}
		}
	}
}

// poisonShelves turns the collector off for the test — the value shelves
// are weak, and a collection would empty them — and returns churn, which
// draws every array the pool's int and float64 shelves hold in the size
// classes of the test graph's stores, writes junk over it (−1, NaN) and
// shelves it again. Run between queries, it makes a store read after it was
// moved out of a vector or released show as a wrong answer, and so does a
// position a kernel drew uncleared and left unwritten.
func poisonShelves(t *testing.T) (churn func()) {
	t.Helper()
	prev := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
	return func() {
		junk(-1)
		junk(math.NaN())
	}
}

// junk overwrites every shelved array of T's classes up to 2⁹ with x.
func junk[T int | float64](x T) {
	const shelf = 64 // at least the pool's per-class shelf capacity
	for class := 0; class <= 9; class++ {
		drawn := make([][]T, 0, shelf)
		for k := 0; k < shelf; k++ {
			s := pool.Vals[T](1 << class)
			for i := range s {
				s[i] = x
			}
			drawn = append(drawn, s)
		}
		for _, s := range drawn {
			pool.Recycle(s)
		}
	}
}

// TestShardedKHopEquivalence: k-hop vertex sets are tuple-exact against the
// one-shard BFS for a sweep of sources and hop budgets, with junk on the
// pool's shelves before every query.
func TestShardedKHopEquivalence(t *testing.T) {
	churn := poisonShelves(t)
	g := testGraph()
	oracle := viewOf(t, serve.NewShardedBackend(newOracle(t, g.N, edgeBatch(g))))
	ctx := context.Background()

	srcs := []int{0, 1, 17, g.N / 2, g.N - 1}
	hops := []int{0, 1, 2, 3}
	eachSharding(t, g, func(name string, v serve.View) {
		for _, src := range srcs {
			for _, k := range hops {
				churn()
				want, err := oracle.KHop(ctx, src, k)
				if err != nil {
					t.Fatalf("oracle KHop(%d,%d): %v", src, k, err)
				}
				churn()
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
// growing — an absurd hop budget answers as k = n does, on both VxM paths,
// well inside the serving default timeout.
func TestKHopStopsAtClosure(t *testing.T) {
	g := generate.Cycle(48)
	views := map[string]serve.View{
		"1 shard":  viewOf(t, serve.NewShardedBackend(newOracle(t, g.N, edgeBatch(g)))),
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
	oracle := viewOf(t, serve.NewShardedBackend(newOracle(t, g.N, edgeBatch(g))))
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

// TestStatsComputedOncePerSnapshot: a snapshot derives its triangle
// statistics once — a second Stats call on it runs no operation at all —
// while a canceled computation is not kept: the next call computes them.
func TestStatsComputedOncePerSnapshot(t *testing.T) {
	g := testGraph()
	for _, shards := range []int{1, 2} {
		store := newSharded(t, g.N, shards, shard.Block, edgeBatch(g))
		snap, _, _, _ := snapshotTuples(t, store)
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := snap.TriangleStats(canceled); core.InfoOf(err) != core.Canceled {
			t.Fatalf("%d shards: TriangleStats under a canceled context: %v", shards, err)
		}
		v := viewOf(t, serve.NewShardedBackend(store))
		first, err := v.Stats(context.Background())
		if err != nil {
			t.Fatalf("%d shards: Stats after a canceled computation: %v", shards, err)
		}
		before := core.StatsSnapshot()
		second, err := v.Stats(context.Background())
		after := core.StatsSnapshot()
		if err != nil || second != first {
			t.Fatalf("%d shards: second Stats = %+v, %v; first %+v", shards, second, err, first)
		}
		if ran := after.OpsEnqueued + after.OpsExecuted - before.OpsEnqueued - before.OpsExecuted; ran != 0 {
			t.Fatalf("%d shards: second Stats on the same snapshot ran %d operations, want 0", shards, ran)
		}
	}
}

// TestShardedPPREquivalence: personalized PageRank agrees with one shard
// to summation tolerance (1e-9 per score) with identical sweep
// counts — the only sharded query where exactness is relaxed, and only
// because the coordinator's gather regroups cross-shard float additions —
// with junk on the pool's shelves before every query.
func TestShardedPPREquivalence(t *testing.T) {
	churn := poisonShelves(t)
	g := testGraph()
	oracle := viewOf(t, serve.NewShardedBackend(newOracle(t, g.N, edgeBatch(g))))
	ctx := context.Background()

	for _, src := range []int{0, 3, g.N / 2} {
		churn()
		want, wantIters, err := oracle.PPRTopK(ctx, src, 0, 0.85, 1e-6, 50)
		if err != nil {
			t.Fatalf("oracle PPR(%d): %v", src, err)
		}
		wantScores := make(map[int]float64, len(want))
		for _, r := range want {
			wantScores[r.Vertex] = r.Score
		}
		eachSharding(t, g, func(name string, v serve.View) {
			churn()
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
// its slice of the share vector as one moved store, which the shard's
// vector adopts without an operation, so the ops a PPR defers grow
// with sweeps × shards and not with the vector's entries (hundreds per sweep
// when the slice went in one SetElement per entry). One shard takes the
// direct path: the whole PPR runs under a plan faulting every draw of the
// coordination kernels without one being drawn, and a sweep flushes twice —
// at its deadline point, which runs the product, and at the L1 test's
// reduce.
func TestShardedPPROpsPerSweepBounded(t *testing.T) {
	g := testGraph()
	for _, shards := range []int{1, 2} {
		v := viewOf(t, serve.NewShardedBackend(newSharded(t, g.N, shards, shard.Block, edgeBatch(g))))
		if shards == 1 {
			faults.Configure(1, faults.Rule{Site: "shard.kernel.*", Kind: faults.KernelErr})
		}
		before := core.StatsSnapshot()
		_, sweeps, err := v.PPRTopK(context.Background(), 0, 0, 0.85, 1e-6, 50)
		if err != nil {
			t.Fatalf("%d-shard PPR: %v", shards, err)
		}
		after := core.StatsSnapshot()
		if flushes := after.Flushes - before.Flushes; shards == 1 && flushes > int64(2*sweeps) {
			t.Fatalf("one-shard PPR flushed %d times over %d sweeps, want at most %d", flushes, sweeps, 2*sweeps)
		}
		if shards == 1 {
			draws := faults.InjectedCount()
			faults.Disable()
			if draws != 0 {
				t.Fatalf("one-shard PPR drew %d scatter/gather steps, want none", draws)
			}
		}
		ops := after.OpsEnqueued - before.OpsEnqueued
		if limit := int64(8 * sweeps * shards); sweeps < 5 || ops > limit {
			t.Fatalf("%d-shard PPR enqueued %d ops over %d sweeps, want at most %d", shards, ops, sweeps, limit)
		}
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
