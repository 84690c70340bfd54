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
)

// The chaos harness: injected kernel faults on the query sites plus tight
// request deadlines, concurrent with a writer churning the graph through
// /ingest. The server may shed, time out, retry, degrade, or serve a stale
// epoch — but every 200 it does return must equal the reference oracle's
// answer on SOME acknowledged prefix of the update stream. Degraded but never
// wrong.
//
// Validation is post-hoc: responses are recorded during the run and checked
// against the full acknowledged-prefix history afterwards, so the check races
// with nothing. A 200 computed from any pinned state necessarily corresponds
// to a prefix that is in the history by the time the run ends.

type chaosEdge struct{ i, j int }

// chaosResponse is one recorded 200, tagged with which endpoint produced it.
type chaosResponse struct {
	kind      string // "khop" | "stats"
	src, k    int
	vertices  []int
	edges     int
	triangles int64
}

// chaosState is the model adjacency: the edge set after a prefix of
// acknowledged batches.
type chaosState map[chaosEdge]bool

func (st chaosState) clone() chaosState {
	c := make(chaosState, len(st))
	for e := range st {
		c[e] = true
	}
	return c
}

// oracleGraph converts a model state to the reference adjacency.
func oracleGraph(n int, st chaosState) *refalgo.Adjacency {
	g := &generate.Graph{N: n}
	for e := range st {
		g.Edges = append(g.Edges, generate.Edge{Src: e.i, Dst: e.j, Weight: 1})
	}
	return refalgo.NewAdjacency(g)
}

// oracleKHop is the reference k-hop answer: vertices with BFS level ≤ k.
func oracleKHop(a *refalgo.Adjacency, src, k int) []int {
	levels := refalgo.BFSLevels(a, src)
	var out []int
	for v, l := range levels {
		if l >= 0 && l <= k {
			out = append(out, v)
		}
	}
	return out
}

// oracleStats is the reference (edges, triangles) pair for a model state:
// directed stored-entry count, triangles on the symmetrized loop-free
// pattern — exactly what Snapshot.Sym feeds the engine's triangle kernel.
func oracleStats(n int, st chaosState) (int, int64) {
	g := &generate.Graph{N: n}
	seen := map[chaosEdge]bool{}
	for e := range st {
		if e.i == e.j {
			continue
		}
		for _, d := range []chaosEdge{{e.i, e.j}, {e.j, e.i}} {
			if !seen[d] {
				seen[d] = true
				g.Edges = append(g.Edges, generate.Edge{Src: d.i, Dst: d.j, Weight: 1})
			}
		}
	}
	return len(st), refalgo.TriangleCount(refalgo.NewAdjacency(g))
}

// TestChaosNeverWrong is the fault-injection load run mandated by the serving
// design: concurrent queries with tight deadlines, a writer mutating the
// graph, and a seeded fault plan firing in the query kernels. Outcome
// accounting is free-form (shed/timeout/stale/degraded all legitimate); the
// hard assertion is zero 200 responses that match no acknowledged prefix.
func TestChaosNeverWrong(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	resetCore(t)
	prev := core.SetScheduler(core.SchedDag)
	defer core.SetScheduler(prev)

	const (
		n          = 48
		numBatches = 40
		numWorkers = 6
		perWorker  = 50
	)
	st, err := shard.NewStore(shard.Config{N: n, Shards: 1, CompactAfter: 120})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	s := NewServer(Options{
		Backend:       NewShardedBackend(st),
		MaxConcurrent: 3,
		MaxQueue:      4,
		RetrySeed:     0xC4A05,
		RetryBase:     200e3, // 200µs
		RetryMax:      2e6,   // 2ms
	})

	// Seed the graph through the front door so history starts consistent.
	history := []chaosState{{}}
	var histMu sync.Mutex
	seedRng := rand.New(rand.NewSource(4242))
	postBatch := func(rng *rand.Rand, inserts, deletes int) bool {
		st := history[len(history)-1].clone()
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
		wrote := 0
		for e := range history[len(history)-1] {
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
		if rec.Code != http.StatusOK {
			return false
		}
		histMu.Lock()
		history = append(history, st)
		histMu.Unlock()
		return true
	}
	if !postBatch(seedRng, 3*n, 0) {
		t.Fatal("seed ingest failed")
	}

	// The fault plan fires only in query kernels: writer absorbs and
	// compactions keep their own failure modes (deadline abandonment), which
	// the at-least-once ingest path already covers. Seeded, so the injection
	// schedule is reproducible.
	faults.Configure(777,
		faults.Rule{Site: "VxM", Kind: faults.KernelErr, Prob: 0.05},
		faults.Rule{Site: "ApplyV", Kind: faults.OOM, Prob: 0.03},
		faults.Rule{Site: "EWiseAddV", Kind: faults.KernelErr, Prob: 0.02},
		faults.Rule{Site: "MxM", Kind: faults.OOM, Prob: 0.02},
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
	go func() { // writer: churn edges while queries fly
		defer wg.Done()
		rng := rand.New(rand.NewSource(9001))
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
			rng := rand.New(rand.NewSource(31 + int64(worker)*101))
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

	// Post-hoc oracle check: every 200 must match SOME acknowledged prefix.
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
			t.Errorf("200 response matches no acknowledged prefix: %+v", r)
		}
	}
	if violations > 0 {
		t.Fatalf("chaos run produced %d incorrect 200 responses", violations)
	}

	// The server must come back clean once the chaos stops: a fresh write
	// recovers any poisoned store and the next read is exact and current.
	if !postBatch(seedRng, 4, 0) {
		t.Fatal("post-chaos ingest failed")
	}
	final := history[len(history)-1]
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

	t.Logf("chaos: %d recorded 200s over %d acknowledged prefixes; status counts %v; stale=%d retried=%d shed=%d throttled=%d recovered=%d breakerOpens=%d",
		len(responses), len(history), status,
		int(StaleServed.Value()), int(Retried.Value()), int(Shed.Value()),
		int(shard.IngestThrottled.Value()), int(shard.StoreRecovered.Value()), int(shard.BreakerOpens.Value()))
}
