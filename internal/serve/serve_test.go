package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

func TestMain(m *testing.M) {
	core.ResetForTesting()
	if err := core.Init(core.NonBlocking); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// resetCore gives the test a pristine nonblocking engine context and
// restores one when it finishes.
func resetCore(t *testing.T) {
	t.Helper()
	core.ResetForTesting()
	if err := core.Init(core.NonBlocking); err != nil {
		t.Fatalf("Init: %v", err)
	}
	t.Cleanup(func() {
		faults.Disable()
		core.ResetForTesting()
		if err := core.Init(core.NonBlocking); err != nil {
			t.Fatalf("re-Init: %v", err)
		}
	})
}

// newTestServer builds a server over a one-shard store holding the graph,
// compacted so queries start from a clean epoch.
func newTestServer(t *testing.T, g *generate.Graph, opt Options) (*Server, *shard.Store) {
	t.Helper()
	s, st := newShardedServer(t, g, 1, opt)
	if err := st.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	return s, st
}

// get performs one in-process request and decodes the JSON body.
func get(t *testing.T, s *Server, url string) (int, http.Header, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil && rec.Code == http.StatusOK {
			t.Fatalf("bad JSON from %s: %v", url, err)
		}
	}
	return rec.Code, rec.Header(), body
}

func post(t *testing.T, s *Server, url, body string) (int, http.Header) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Header()
}

// --- resilience primitives (no engine) ---

func TestAdmissionShedAndDrain(t *testing.T) {
	a := NewAdmission(1, 1)
	rel1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Second request queues; third is shed immediately.
	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		close(started)
		rel2, err := a.Acquire(context.Background())
		if err != nil {
			t.Errorf("queued acquire: %v", err)
			return
		}
		rel2()
	}()
	<-started
	for a.QueueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("over-watermark acquire: got %v want ErrShed", err)
	}
	rel1()
	wg.Wait()

	// A queued waiter whose deadline passes gets its context error back.
	relA, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("re-acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter: got %v want DeadlineExceeded", err)
	}
	relA()

	a.Close()
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("acquire while draining: got %v want ErrDraining", err)
	}
	if err := a.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestRetrierTransientClassification(t *testing.T) {
	transient := []core.Info{core.Canceled, core.InvalidObject, core.OutOfMemory, core.PanicInfo}
	for _, info := range transient {
		if !shard.IsTransient(&core.Error{Info: info, Op: "x"}) {
			t.Errorf("%v must be transient", info)
		}
	}
	permanent := []core.Info{core.DimensionMismatch, core.InvalidIndex, core.DomainMismatch, core.InvalidValue}
	for _, info := range permanent {
		if shard.IsTransient(&core.Error{Info: info, Op: "x"}) {
			t.Errorf("%v must not be transient", info)
		}
	}
	if shard.IsTransient(nil) {
		t.Error("nil error must not be transient")
	}
}

func TestRetrierDo(t *testing.T) {
	r := NewRetrier(1, 3, time.Microsecond, 10*time.Microsecond)
	calls := 0
	n, err := r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return &core.Error{Info: core.Canceled, Op: "q"}
		}
		return nil
	})
	if err != nil || n != 3 || calls != 3 {
		t.Fatalf("transient retry: n=%d calls=%d err=%v", n, calls, err)
	}

	calls = 0
	n, err = r.Do(context.Background(), func(context.Context) error {
		calls++
		return &core.Error{Info: core.DimensionMismatch, Op: "q"}
	})
	if calls != 1 || n != 1 || core.InfoOf(err) != core.DimensionMismatch {
		t.Fatalf("permanent error retried: n=%d calls=%d err=%v", n, calls, err)
	}

	// Identical seeds draw identical backoff schedules.
	r1 := NewRetrier(42, 5, time.Millisecond, 8*time.Millisecond)
	r2 := NewRetrier(42, 5, time.Millisecond, 8*time.Millisecond)
	for i := 1; i <= 4; i++ {
		if d1, d2 := r1.backoff(i), r2.backoff(i); d1 != d2 {
			t.Fatalf("backoff draw %d diverged: %v vs %v", i, d1, d2)
		}
	}
}

// --- query endpoints against oracles ---

// TestServerKHopMatchesOracle: /query/khop answers the oracle's vertex set
// at one and two shards, in strictly ascending order — the order of the
// visited vector's tuples, which the query returns without sorting them.
func TestServerKHopMatchesOracle(t *testing.T) {
	resetCore(t)
	g := generate.RMAT(6, 4, 99).Dedup(true)
	adj := refalgo.NewAdjacency(g)
	for _, shards := range []int{1, 2} {
		s, st := newShardedServer(t, g, shards, Options{})
		if err := st.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		for _, src := range []int{0, 3, 17, 40} {
			for _, k := range []int{0, 1, 2, 3} {
				code, hdr, body := get(t, s, "/query/khop?src="+itoa(src)+"&k="+itoa(k))
				if code != http.StatusOK {
					t.Fatalf("%d shards: khop(%d,%d): status %d", shards, src, k, code)
				}
				if hdr.Get("X-Graphblas-Epoch") == "" {
					t.Fatalf("khop response missing epoch header")
				}
				levels := refalgo.BFSLevels(adj, src)
				var want []int
				for v, l := range levels {
					if l >= 0 && l <= k {
						want = append(want, v)
					}
				}
				got := intsOf(t, body["vertices"])
				for i := 1; i < len(got); i++ {
					if got[i] <= got[i-1] {
						t.Fatalf("%d shards: khop(%d,%d): vertices not strictly ascending at %d: %v", shards, src, k, i, got)
					}
				}
				if !equalInts(got, want) {
					t.Fatalf("%d shards: khop(%d,%d): got %v want %v", shards, src, k, got, want)
				}
			}
		}
	}
}

func TestServerStatsMatchesOracle(t *testing.T) {
	resetCore(t)
	g := generate.RMAT(6, 4, 123).Dedup(true)
	s, _ := newTestServer(t, g, Options{})
	code, _, body := get(t, s, "/stats?x=1")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d body %v", code, body)
	}
	stats := body["stats"].(map[string]any)
	// Oracle triangles on the symmetrized loop-free pattern.
	sg := &generate.Graph{N: g.N, Edges: append([]generate.Edge(nil), g.Edges...)}
	sg.Symmetrize()
	sg = sg.Dedup(true)
	want := refalgo.TriangleCount(refalgo.NewAdjacency(sg))
	if got := int64(stats["triangles"].(float64)); got != want {
		t.Fatalf("triangles: got %d want %d", got, want)
	}
	if got := int(stats["edges"].(float64)); got != len(g.Edges) {
		t.Fatalf("edges: got %d want %d", got, len(g.Edges))
	}
}

func TestServerPPRRanksRestartVertexFirst(t *testing.T) {
	resetCore(t)
	g := generate.Cycle(8)
	s, _ := newTestServer(t, g, Options{})
	code, _, body := get(t, s, "/query/ppr?src=3&k=8")
	if code != http.StatusOK {
		t.Fatalf("ppr: status %d body %v", code, body)
	}
	ranks := body["ranks"].([]any)
	if len(ranks) == 0 {
		t.Fatal("ppr returned no ranks")
	}
	top := ranks[0].(map[string]any)
	if int(top["vertex"].(float64)) != 3 {
		t.Fatalf("ppr top vertex: got %v want restart vertex 3", top["vertex"])
	}
	if body["iterations"].(float64) <= 0 {
		t.Fatal("ppr reported zero iterations")
	}
}

// TestQueryDeadlineCancelsSweeps: a deadline expiring mid-power-iteration
// surfaces as a Canceled-class engine error — the flush checkpoint inside
// the sweep loop saw the expired context and stopped dispatch — at one
// shard, where the checkpoint runs the product, and at two, where the
// scatter-gather flushes under the same deadline. A k-hop query whose
// deadline passes at each of its checkpoints in turn either answers in
// full or fails Canceled-class, and either way leaves nothing drawn behind:
// every early return frees its work vectors.
func TestQueryDeadlineCancelsSweeps(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	g := generate.RMAT(7, 8, 5).Dedup(true)
	for _, shards := range []int{1, 2} {
		resetCore(t)
		_, st := newShardedServer(t, g, shards, Options{})
		snap, stale, err := st.Snapshot(context.Background())
		if err != nil || stale {
			t.Fatalf("%d shards: snapshot: stale=%v err=%v", shards, stale, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		// tol < 0 never converges, so only the deadline can end the loop.
		_, _, err = View{snap}.PPRTopK(ctx, 0, 10, 0.85, -1, 1<<30)
		cancel()
		if core.InfoOf(err) != core.Canceled {
			t.Fatalf("%d shards: deadline mid-iteration: got %v want Canceled-class error", shards, err)
		}

		want, err := View{snap}.KHop(context.Background(), 0, 6)
		if err != nil {
			t.Fatalf("%d shards: KHop: %v", shards, err)
		}
		canceled := 0
		for looks := int32(0); ; looks++ {
			got, err := View{snap}.KHop(expireAfter(looks), 0, 6)
			if err == nil {
				if !slices.Equal(got, want) {
					t.Fatalf("%d shards: KHop with %d looks at the deadline = %v, want %v", shards, looks, got, want)
				}
				break
			}
			if core.InfoOf(err) != core.Canceled {
				t.Fatalf("%d shards: KHop past its deadline at look %d: got %v want Canceled-class error", shards, looks, err)
			}
			canceled++
		}
		if canceled < 3 {
			t.Fatalf("%d shards: KHop was canceled at %d checkpoints, want a deadline mid-sweep too", shards, canceled)
		}
	}
}

// expiring is a context whose deadline passes at its look-th look: Err
// reports nothing before it and DeadlineExceeded from then on, and Done is
// closed once it has.
type expiring struct {
	context.Context
	left atomic.Int32
	once sync.Once
	done chan struct{}
}

// expireAfter returns a context whose deadline passes after looks looks.
func expireAfter(looks int32) *expiring {
	c := &expiring{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(looks)
	return c
}

func (c *expiring) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.DeadlineExceeded
}

func (c *expiring) Done() <-chan struct{} { return c.done }

// TestServerPPRMatchesOracle: /query/ppr's scores agree with the dense
// power iteration of refalgo to 1e-9 per score, over the same support and
// in the same number of sweeps, at every shard count.
func TestServerPPRMatchesOracle(t *testing.T) {
	resetCore(t)
	g := generate.RMAT(7, 8, 5).Dedup(true)
	adj := refalgo.NewAdjacency(g)
	for _, shards := range []int{1, 2, 4} {
		s, _ := newShardedServer(t, g, shards, Options{})
		for _, src := range []int{0, 3, g.N / 2} {
			want, wantIters := refalgo.PersonalizedPageRank(adj, src, 0.85, 1e-6, pprMaxIter)
			code, _, body := get(t, s, "/query/ppr?k=0&src="+itoa(src))
			if code != http.StatusOK {
				t.Fatalf("%d shards: ppr(%d): status %d body %v", shards, src, code, body)
			}
			if iters := int(body["iterations"].(float64)); iters != wantIters {
				t.Fatalf("%d shards: ppr(%d): %d sweeps, oracle %d", shards, src, iters, wantIters)
			}
			support := 0
			for _, w := range want {
				if w != 0 {
					support++
				}
			}
			ranks := body["ranks"].([]any)
			if len(ranks) != support {
				t.Fatalf("%d shards: ppr(%d): %d ranked, oracle support %d", shards, src, len(ranks), support)
			}
			for _, r := range ranks {
				e := r.(map[string]any)
				v, score := int(e["vertex"].(float64)), e["score"].(float64)
				if math.Abs(score-want[v]) > 1e-9 {
					t.Fatalf("%d shards: ppr(%d): score[%d] = %.15g, oracle %.15g (|Δ| > 1e-9)", shards, src, v, score, want[v])
				}
			}
		}
	}
}

// TestPPRDegradesAtHalfQueue: /query/ppr runs its full budget while fewer
// than half of the admission queue's places are taken, and from half on
// reports itself degraded and stops at 8 sweeps, on a source whose full
// answer takes more. The waiters are counted in, not started, so the
// request still takes a free slot at once.
func TestPPRDegradesAtHalfQueue(t *testing.T) {
	resetCore(t)
	g := generate.RMAT(7, 8, 5).Dedup(true)
	_, full := refalgo.PersonalizedPageRank(refalgo.NewAdjacency(g), 0, 0.85, 1e-6, 50)
	if full <= 8 {
		t.Fatalf("the full PPR takes %d sweeps; the test needs more than 8", full)
	}
	s, _ := newTestServer(t, g, Options{MaxQueue: 8})
	for _, c := range []struct {
		waiting  int64
		degraded bool
		sweeps   int
	}{{0, false, full}, {3, false, full}, {4, true, 8}, {8, true, 8}} {
		s.adm.waiting.Store(c.waiting)
		code, hdr, body := get(t, s, "/query/ppr?src=0&k=3")
		s.adm.waiting.Store(0)
		if code != http.StatusOK {
			t.Fatalf("%d waiting: status %d body %v", c.waiting, code, body)
		}
		if body["degraded"] != c.degraded || (hdr.Get("X-Graphblas-Degraded") == "true") != c.degraded {
			t.Fatalf("%d of 8 waiting: degraded %v (header %q), want %v", c.waiting, body["degraded"], hdr.Get("X-Graphblas-Degraded"), c.degraded)
		}
		if got := int(body["iterations"].(float64)); got != c.sweeps {
			t.Fatalf("%d of 8 waiting: %d sweeps, want %d", c.waiting, got, c.sweeps)
		}
	}
}

// TestPPRIgnoresEdgeWeights: PPR divides each rank by a count of out-edges,
// so the product must carry the shares unweighted — a graph ingested at
// weight 5 ranks exactly as at weight 1, bit for bit and in as many sweeps,
// at one shard and at two. Under ⟨+, ×⟩ the weight-5 scores grow by up to
// d·5 = 4.25× a sweep and never converge.
func TestPPRIgnoresEdgeWeights(t *testing.T) {
	g := generate.RMAT(7, 8, 5).Dedup(true)
	for _, shards := range []int{1, 2} {
		resetCore(t)
		var answers [2]string
		for i, w := range []string{"1", "5"} {
			st, err := shard.NewStore(shard.Config{N: g.N, Shards: shards})
			if err != nil {
				t.Fatalf("NewStore: %v", err)
			}
			s := NewServer(Options{Backend: NewShardedBackend(st)})
			var b strings.Builder
			b.WriteString(`{"inserts":[`)
			for k, e := range g.Edges {
				if k > 0 {
					b.WriteByte(',')
				}
				b.WriteString("[" + itoa(e.Src) + "," + itoa(e.Dst) + "," + w + "]")
			}
			b.WriteString(`]}`)
			if code, _ := post(t, s, "/ingest", b.String()); code != http.StatusOK {
				t.Fatalf("%d shards: ingest at weight %s: status %d", shards, w, code)
			}
			code, _, body := get(t, s, "/query/ppr?src=0&k=0")
			if code != http.StatusOK {
				t.Fatalf("%d shards: ppr at weight %s: status %d body %v", shards, w, code, body)
			}
			delete(body, "epoch")
			j, _ := json.Marshal(body)
			answers[i] = string(j)
		}
		if answers[0] != answers[1] {
			t.Fatalf("%d shards: PPR depends on edge weights:\n  weight 1: %s\n  weight 5: %s", shards, answers[0], answers[1])
		}
	}
}

// --- degradation ladder ---

// TestIngestBackpressure: with the compactor jammed — every compaction
// faults, so after three in a row the breaker opens and skips the rest — the
// delta overlay only grows, and past the shed watermark (four times
// CompactAfter) ingest answers 503 + Retry-After and counts the rejection,
// at any shard count. Every batch writes a quarter of its edges into each
// quarter of the rows, so every shard's overlay reaches the watermark.
func TestIngestBackpressure(t *testing.T) {
	const compactAfter = 4
	for _, shards := range []int{1, 2} {
		resetCore(t)
		st, err := shard.NewStore(shard.Config{N: 32, Shards: shards, CompactAfter: compactAfter})
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		s := NewServer(Options{Backend: NewShardedBackend(st)})
		faults.Configure(1, faults.Rule{Site: "Matrix.Compact", Kind: faults.KernelErr})
		throttled, opens := shard.IngestThrottled.Value(), shard.BreakerOpens.Value()
		var shed int64
		for i := 0; i < 16; i++ {
			b := `{"inserts":[`
			for e := 0; e < 4; e++ {
				if e > 0 {
					b += ","
				}
				b += "[" + itoa(8*e+i%8) + "," + itoa((i*7+e+1)%32) + ",1]"
			}
			b += `]}`
			code, hdr := post(t, s, "/ingest", b)
			switch code {
			case http.StatusOK:
			case http.StatusServiceUnavailable:
				shed++
				if hdr.Get("Retry-After") == "" {
					t.Fatal("backpressure 503 missing Retry-After")
				}
			default:
				t.Fatalf("%d shards: ingest: unexpected status %d", shards, code)
			}
		}
		faults.Disable()
		if shed == 0 {
			t.Fatalf("%d shards: overlay never hit the shed watermark", shards)
		}
		for _, ss := range st.Status() {
			if ss.Delta < 4*compactAfter {
				t.Fatalf("%d shards: shard %d's overlay stopped at %d entries, under the watermark %d", shards, ss.Shard, ss.Delta, 4*compactAfter)
			}
		}
		if got := shard.IngestThrottled.Value() - throttled; got != shed {
			t.Fatalf("%d shards: throttled counter moved by %v over %v 503s", shards, got, shed)
		}
		if shard.BreakerOpens.Value() <= opens {
			t.Fatalf("%d shards: jammed compactor never opened the breaker", shards)
		}
		if _, _, hz := get(t, s, "/healthz"); hz["breaker"] != "open" {
			t.Fatalf("%d shards: healthz breaker = %v, want open", shards, hz["breaker"])
		}
	}
}

// TestStaleFallback: when the writer's store is poisoned (an injected fault
// fails every attempt of an absorb, so the batch is cleanly rejected and the
// shard left invalid), pinning a newer version fails — the server degrades
// to the last good snapshot and stamps the staleness header instead of
// failing reads.
func TestStaleFallback(t *testing.T) {
	resetCore(t)
	g := generate.RMAT(5, 4, 7).Dedup(true)
	s, st := newTestServer(t, g, Options{})
	// Warm the snapshot cache with a healthy read, then move the store past
	// it so the next read has to pin afresh.
	if code, _, _ := get(t, s, "/query/khop?src=0&k=1"); code != http.StatusOK {
		t.Fatalf("warm query failed: %d", code)
	}
	b := stream.NewBatch[float64]()
	b.Insert(1, 2, 1)
	if err := st.Ingest(b); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	faults.Configure(3, faults.Rule{Site: "Matrix.ApplyUpdateBatch", Kind: faults.OOM})
	err := st.Ingest(b)
	faults.Disable()
	if err == nil || errors.Is(err, ErrIndeterminate) || st.Frozen() {
		t.Fatalf("faulted ingest: err=%v frozen=%v, want a clean reject", err, st.Frozen())
	}
	code, hdr, _ := get(t, s, "/query/khop?src=0&k=1")
	if code != http.StatusOK {
		t.Fatalf("degraded read: status %d", code)
	}
	if hdr.Get("X-Graphblas-Stale") != "true" {
		t.Fatal("degraded read missing staleness header")
	}
	// Reads never clear the invalid mark — only the writer may, because only
	// it knows which batch the rollback dropped. Its next ingest revalidates
	// the store, re-applies, and fresh reads resume.
	recovered := shard.StoreRecovered.Value()
	if err := st.Ingest(b); err != nil {
		t.Fatalf("recovery ingest: %v", err)
	}
	if shard.StoreRecovered.Value() <= recovered {
		t.Fatal("recovery ingest did not revalidate the store")
	}
	code, hdr, _ = get(t, s, "/query/khop?src=1&k=1")
	if code != http.StatusOK || hdr.Get("X-Graphblas-Stale") == "true" {
		t.Fatalf("post-recovery read: status %d, stale=%q", code, hdr.Get("X-Graphblas-Stale"))
	}
}

func TestGracefulDrain(t *testing.T) {
	resetCore(t)
	g := generate.Cycle(8)
	s, _ := newTestServer(t, g, Options{})
	if code, _, _ := get(t, s, "/readyz"); code != http.StatusOK {
		t.Fatal("server not ready before drain")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code, _, _ := get(t, s, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatal("readyz must fail after drain")
	}
	if code, hdr, _ := get(t, s, "/query/khop?src=0&k=1"); code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("draining query: got %d, want 503 with Retry-After", code)
	}
	if code, _ := post(t, s, "/ingest", `{"inserts":[[0,1,1]]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest: got %d want 503", code)
	}
	// Health stays truthful while draining: the process is alive.
	if code, _, _ := get(t, s, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz must stay 200 while draining")
	}
}

func TestMetricsEndpointExposesServeCounters(t *testing.T) {
	resetCore(t)
	g := generate.Cycle(8)
	s, _ := newTestServer(t, g, Options{})
	if code, _, _ := get(t, s, "/query/khop?src=0&k=1"); code != http.StatusOK {
		t.Fatal("query failed")
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	out := rec.Body.String()
	for _, want := range []string{"graphblas_serve_requests_total", "graphblas_serve_latency_seconds", "graphblas_flushes_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestLoadGenDeterministicMix(t *testing.T) {
	resetCore(t)
	g := generate.RMAT(6, 4, 11).Dedup(true)
	s, _ := newTestServer(t, g, Options{MaxConcurrent: 4, MaxQueue: 8})
	spec := LoadSpec{
		Seed: 1, Requests: 60, Workers: 3, N: g.N,
		KHopFrac: 0.6, PPRFrac: 0.3, IngestEvery: 10, BatchSize: 4,
	}
	res := RunLoad(s, spec)
	if res.Requests != spec.Requests {
		t.Fatalf("requests: got %d want %d", res.Requests, spec.Requests)
	}
	if res.OK+res.Shed+res.Timeout+res.Errors != res.Requests {
		t.Fatalf("outcome counts do not partition requests: %+v", res)
	}
	if res.OK == 0 {
		t.Fatalf("no successful responses: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected hard errors: %+v", res)
	}
	if res.P99Ms < res.P50Ms {
		t.Fatalf("percentiles inverted: %+v", res)
	}
}

// --- small helpers ---

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func intsOf(t *testing.T, v any) []int {
	t.Helper()
	raw, ok := v.([]any)
	if !ok {
		if v == nil {
			return nil
		}
		t.Fatalf("expected array, got %T", v)
	}
	out := make([]int, len(raw))
	for i, x := range raw {
		out[i] = int(x.(float64))
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
