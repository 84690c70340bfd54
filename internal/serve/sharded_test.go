package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graphblas/internal/core"
	"graphblas/internal/faults"
	"graphblas/internal/generate"
	"graphblas/internal/leakcheck"
	"graphblas/internal/refalgo"
	"graphblas/internal/shard"
	"graphblas/internal/stream"
)

// newShardedServer builds a server over a row-partitioned store preloaded
// with the graph's edges.
func newShardedServer(t *testing.T, g *generate.Graph, shards int, opt Options) (*Server, *shard.Store) {
	t.Helper()
	st, err := shard.NewStore(shard.Config{N: g.N, Shards: shards})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	b := stream.NewBatch[float64]()
	for _, e := range g.Edges {
		b.Insert(e.Src, e.Dst, 1)
	}
	if err := st.Ingest(b); err != nil {
		t.Fatalf("sharded ingest: %v", err)
	}
	opt.Backend = NewShardedBackend(st)
	return NewServer(opt), st
}

// TestShardedServerMatchesSingleEngine: the same endpoints over the same
// graph answer identically whether the store has one shard (the engine's own
// VxM, itself held to refalgo by TestServer*MatchesOracle) or four — the
// HTTP-level differential for the whole scatter-gather stack.
func TestShardedServerMatchesSingleEngine(t *testing.T) {
	resetCore(t)
	g := generate.RMAT(6, 8, 11).Dedup(true)
	single, _ := newTestServer(t, g, Options{})
	sharded, _ := newShardedServer(t, g, 4, Options{})

	for _, url := range []string{
		"/query/khop?src=0&k=2",
		"/query/khop?src=5&k=3",
		"/query/degree?v=0",
		"/query/degree?v=7",
		"/stats?x=1",
	} {
		c1, _, b1 := get(t, single, url)
		c2, h2, b2 := get(t, sharded, url)
		if c1 != http.StatusOK || c2 != http.StatusOK {
			t.Fatalf("%s: single %d, sharded %d", url, c1, c2)
		}
		// Epoch tokens count each store's own commits (single compacted once
		// more); everything else must agree.
		delete(b1, "epoch")
		delete(b2, "epoch")
		j1, _ := json.Marshal(b1)
		j2, _ := json.Marshal(b2)
		if string(j1) != string(j2) {
			t.Errorf("%s diverged:\n  single:  %s\n  sharded: %s", url, j1, j2)
		}
		if h2.Get("X-Graphblas-Epoch") == "" {
			t.Errorf("%s: sharded response missing epoch header", url)
		}
	}

	// PPR: same iteration count and scores to 1e-9 (cross-shard float
	// regrouping only).
	c1, _, p1 := get(t, single, "/query/ppr?src=0&k=10")
	c2, _, p2 := get(t, sharded, "/query/ppr?src=0&k=10")
	if c1 != http.StatusOK || c2 != http.StatusOK {
		t.Fatalf("ppr: single %d, sharded %d", c1, c2)
	}
	if p1["iterations"] != p2["iterations"] {
		t.Fatalf("ppr sweeps diverged: single %v, sharded %v", p1["iterations"], p2["iterations"])
	}
	r1 := p1["ranks"].([]any)
	r2 := p2["ranks"].([]any)
	if len(r1) != len(r2) {
		t.Fatalf("ppr rank counts diverged: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		e1 := r1[i].(map[string]any)
		e2 := r2[i].(map[string]any)
		if e1["vertex"] != e2["vertex"] {
			t.Fatalf("ppr rank %d vertex diverged: %v vs %v", i, e1["vertex"], e2["vertex"])
		}
		d := e1["score"].(float64) - e2["score"].(float64)
		if d < -1e-9 || d > 1e-9 {
			t.Fatalf("ppr rank %d score diverged beyond 1e-9: %v vs %v", i, e1["score"], e2["score"])
		}
	}

	// Health has one shape at every shard count, and reports the partition.
	for srv, want := range map[*Server]int{single: 1, sharded: 4} {
		_, _, hz := get(t, srv, "/healthz")
		if shardsAny, ok := hz["shards"].([]any); !ok || len(shardsAny) != want {
			t.Fatalf("healthz shards = %v, want %d entries", hz["shards"], want)
		}
		if hz["breaker"] != "closed" || hz["frozen"] != false {
			t.Fatalf("healthz breaker = %v frozen = %v on a healthy store", hz["breaker"], hz["frozen"])
		}
	}
}

// TestShardedIngestRoundTrip: writes through /ingest land in subsequent
// reads, and the epoch token advances with every acknowledged write —
// compacted or not, at any shard count.
func TestShardedIngestRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4} {
		testIngestRoundTrip(t, shards)
	}
}

func testIngestRoundTrip(t *testing.T, shards int) {
	resetCore(t)
	g := &generate.Graph{N: 32}
	s, _ := newShardedServer(t, g, shards, Options{})

	code, _ := post(t, s, "/ingest", `{"inserts":[[0,1,1],[1,2,1],[31,3,1]]}`)
	if code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	code, h, body := get(t, s, "/query/khop?src=0&k=2")
	if code != http.StatusOK {
		t.Fatalf("khop: %d", code)
	}
	if body["count"].(float64) != 3 {
		t.Fatalf("khop count = %v, want 3 (0→1→2)", body["count"])
	}
	ep1 := h.Get("X-Graphblas-Epoch")

	code, _ = post(t, s, "/ingest", `{"deletes":[[0,1]]}`)
	if code != http.StatusOK {
		t.Fatalf("delete ingest: %d", code)
	}
	code, h, body = get(t, s, "/query/khop?src=0&k=2")
	if code != http.StatusOK {
		t.Fatalf("khop after delete: %d", code)
	}
	if body["count"].(float64) != 1 {
		t.Fatalf("khop count after delete = %v, want 1", body["count"])
	}
	if h.Get("X-Graphblas-Epoch") == ep1 {
		t.Fatal("epoch token did not advance across an acknowledged write")
	}
}

// TestShardedIngestIndeterminateHeader: a commit that fails on some of its
// shards is not acknowledged — 500 with X-Graphblas-Indeterminate — the
// frozen store serves reads from its last acknowledged snapshot, stamped and
// counted as stale, and it recovers by redo on the next clean write, after which the batch IS
// visible: exactly the "may appear in a later epoch" contract the header
// advertises.
func TestShardedIngestIndeterminateHeader(t *testing.T) {
	resetCore(t)
	g := &generate.Graph{N: 16}
	s, st := newShardedServer(t, g, 4, Options{})
	// A read before the failure leaves a last good snapshot to fall back on.
	if code, _, _ := get(t, s, "/query/khop?src=0&k=1"); code != http.StatusOK {
		t.Fatalf("warm query: %d", code)
	}

	// The batch has two owning shards of three attempts each, and the first
	// five absorbs fail: however the two interleave, one exhausts its
	// at-least-once retries and queues for redo, the other commits on its
	// third.
	faults.Configure(5, faults.Rule{Site: "stream.kernel.absorb", Kind: faults.KernelErr, Times: 5})
	code, h := post(t, s, "/ingest", `{"inserts":[[0,1,1],[15,2,1]]}`)
	faults.Disable()
	if code != http.StatusInternalServerError {
		t.Fatalf("faulted ingest: %d, want 500", code)
	}
	if h.Get("X-Graphblas-Indeterminate") != "true" {
		t.Fatal("unacknowledged partial ingest missing X-Graphblas-Indeterminate")
	}
	if !st.Frozen() {
		t.Fatal("store not frozen after unacknowledged ingest")
	}
	staleBefore := StaleServed.Value()
	code, h, _ = get(t, s, "/query/khop?src=0&k=1")
	if code != http.StatusOK || h.Get("X-Graphblas-Stale") != "true" {
		t.Fatalf("frozen read: status %d, stale=%q", code, h.Get("X-Graphblas-Stale"))
	}
	if got := StaleServed.Value() - staleBefore; got != 1 {
		t.Fatalf("frozen read counted %d stale responses, want 1", got)
	}

	// Next clean write drains the redo queue; both batches become visible.
	code, _ = post(t, s, "/ingest", `{"inserts":[[1,2,1]]}`)
	if code != http.StatusOK {
		t.Fatalf("recovery ingest: %d", code)
	}
	code, _, body := get(t, s, "/query/khop?src=0&k=3")
	if code != http.StatusOK {
		t.Fatalf("post-recovery khop: %d", code)
	}
	if body["count"].(float64) != 3 {
		t.Fatalf("post-recovery khop count = %v, want 3 (redone 0→1 plus 1→2)", body["count"])
	}
}

// TestShardedChaosNeverWrong is the sharded run of the serving chaos gate:
// injected faults in the per-shard query kernels, the scatter-gather
// coordination kernels, and the per-shard absorb path, concurrent with a
// writer churning edges. Indeterminate batches (500 + header) are modeled as
// entered-but-unacknowledged: the store converges to contain them before the
// next acknowledged write, so they extend the prefix history exactly like a
// 200. The hard assertion is unchanged: zero 200 responses that match no
// prefix.
func TestShardedChaosNeverWrong(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	resetCore(t)
	prev := core.SetScheduler(core.SchedDag)
	defer core.SetScheduler(prev)

	const (
		n          = 48
		numBatches = 30
		numWorkers = 5
		perWorker  = 40
	)
	g := &generate.Graph{N: n}
	s, _ := newShardedServer(t, g, 4, Options{
		MaxConcurrent: 3,
		MaxQueue:      4,
		RetrySeed:     0x5A4D,
		RetryBase:     200e3, // 200µs
		RetryMax:      2e6,   // 2ms
	})

	history := []chaosState{{}}
	var histMu sync.Mutex
	seedRng := rand.New(rand.NewSource(777))
	// postBatch mirrors the single-engine chaos writer, with one addition:
	// an indeterminate 500 also appends to history (the batch converges in
	// before the next acknowledged write), while clean rejects do not.
	postBatch := func(rng *rand.Rand, inserts, deletes int) bool {
		histMu.Lock()
		st := history[len(history)-1].clone()
		histMu.Unlock()
		var body strings.Builder
		body.WriteString(`{"inserts":[`)
		for e := 0; e < inserts; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if e > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, "[%d,%d,1]", i, j)
			st[chaosEdge{i, j}] = true
		}
		body.WriteString(`],"deletes":[`)
		histMu.Lock()
		last := history[len(history)-1]
		histMu.Unlock()
		wrote := 0
		for e := range last {
			if wrote >= deletes {
				break
			}
			if rng.Float64() < 0.25 {
				if wrote > 0 {
					body.WriteByte(',')
				}
				fmt.Fprintf(&body, "[%d,%d]", e.i, e.j)
				delete(st, e)
				wrote++
			}
		}
		body.WriteString(`]}`)
		req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body.String()))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		entered := rec.Code == http.StatusOK ||
			rec.Header().Get("X-Graphblas-Indeterminate") == "true"
		if !entered {
			return false
		}
		histMu.Lock()
		history = append(history, st)
		histMu.Unlock()
		return rec.Code == http.StatusOK
	}
	if !postBatch(seedRng, 3*n, 0) {
		t.Fatal("seed ingest failed")
	}

	faults.Configure(1313,
		faults.Rule{Site: "VxM", Kind: faults.KernelErr, Prob: 0.04},
		faults.Rule{Site: "ApplyV", Kind: faults.OOM, Prob: 0.02},
		faults.Rule{Site: "shard.kernel.scatter", Kind: faults.KernelErr, Prob: 0.03},
		faults.Rule{Site: "shard.kernel.gather", Kind: faults.KernelErr, Prob: 0.03},
		faults.Rule{Site: "stream.kernel.absorb", Kind: faults.KernelErr, Prob: 0.10},
	)
	defer faults.Disable()

	var (
		respMu    sync.Mutex
		responses []chaosResponse
		status    = map[int]int{}
	)
	var wg sync.WaitGroup
	stopWriter := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2002))
		for b := 0; b < numBatches; b++ {
			select {
			case <-stopWriter:
				return
			default:
			}
			postBatch(rng, 6+rng.Intn(8), 1+rng.Intn(2))
			time.Sleep(500 * time.Microsecond)
		}
	}()

	timeouts := []string{"", "", "", "1ms", "3ms", "500us"}
	for w := 0; w < numWorkers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(61 + int64(worker)*131))
			for q := 0; q < perWorker; q++ {
				src := rng.Intn(n)
				k := 1 + rng.Intn(3)
				url := fmt.Sprintf("/query/khop?src=%d&k=%d", src, k)
				kind := "khop"
				if rng.Float64() < 0.15 {
					url, kind = "/stats?x=1", "stats"
				}
				if to := timeouts[rng.Intn(len(timeouts))]; to != "" {
					url += "&timeout=" + to
				}
				req := httptest.NewRequest(http.MethodGet, url, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)

				respMu.Lock()
				status[rec.Code]++
				respMu.Unlock()
				if rec.Code != http.StatusOK {
					continue
				}
				switch kind {
				case "khop":
					var out struct {
						Vertices []int `json:"vertices"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
						t.Errorf("khop 200 with unparsable body: %v", err)
						continue
					}
					respMu.Lock()
					responses = append(responses, chaosResponse{kind: kind, src: src, k: k, vertices: out.Vertices})
					respMu.Unlock()
				case "stats":
					var out struct {
						Stats GraphStats `json:"stats"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
						t.Errorf("stats 200 with unparsable body: %v", err)
						continue
					}
					respMu.Lock()
					responses = append(responses, chaosResponse{kind: kind, edges: out.Stats.Edges, triangles: out.Stats.Triangles})
					respMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopWriter)
	faults.Disable()

	adjCache := make([]*refalgo.Adjacency, len(history))
	adjOf := func(p int) *refalgo.Adjacency {
		if adjCache[p] == nil {
			adjCache[p] = oracleGraph(n, history[p])
		}
		return adjCache[p]
	}
	violations := 0
	for _, r := range responses {
		ok := false
		for p := range history {
			switch r.kind {
			case "khop":
				if equalInts(r.vertices, oracleKHop(adjOf(p), r.src, r.k)) {
					ok = true
				}
			case "stats":
				edges, tri := oracleStats(n, history[p])
				if r.edges == edges && r.triangles == tri {
					ok = true
				}
			}
			if ok {
				break
			}
		}
		if !ok {
			violations++
			t.Errorf("sharded 200 matches no entered prefix: %+v", r)
		}
	}
	if violations > 0 {
		t.Fatalf("sharded chaos run produced %d incorrect 200 responses", violations)
	}

	// Converge: clean writes drain any redo debt, then the final read is
	// exact and current against the last entered state.
	var recovered bool
	for attempt := 0; attempt < 5; attempt++ {
		if postBatch(seedRng, 4, 0) {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("post-chaos ingest never re-acknowledged")
	}
	histMu.Lock()
	final := history[len(history)-1]
	histMu.Unlock()
	req := httptest.NewRequest(http.MethodGet, "/query/khop?src=0&k=2", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-chaos query: status %d", rec.Code)
	}
	if rec.Header().Get("X-Graphblas-Stale") == "true" {
		t.Fatal("post-chaos query still stale")
	}
	var out struct {
		Vertices []int `json:"vertices"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("post-chaos body: %v", err)
	}
	if want := oracleKHop(oracleGraph(n, final), 0, 2); !equalInts(out.Vertices, want) {
		t.Fatalf("post-chaos khop diverged from final state: got %v want %v", out.Vertices, want)
	}

	t.Logf("sharded chaos: %d recorded 200s over %d entered prefixes; status counts %v",
		len(responses), len(history), status)
}
