package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"graphblas/internal/generate"
	"graphblas/internal/refalgo"
	"graphblas/internal/serve"
	"graphblas/internal/shard"
	"graphblas/internal/stream"
)

const (
	maxClients    = 2
	pprTopK       = 10
	pprDamping    = 0.85 // the constants of serve.handlePPR
	pprTol        = 1e-6
	pprMaxIter    = 50
	pprDegraded   = 8
	pprCheckEvery = 16 // the dense oracle runs on every 16th PPR answer
	rwInserts     = 32 // per write, rwFanout of them out of the op's source
	rwFanout      = 4
	finishSources = 32 // reads of the quiesced final-state check
	// On a loaded host a sharded PPR crosses the server's 2 s default now and
	// then; a 504 that depends on host load would make the failure count a
	// noise source.
	requestTimeout = 30 * time.Second
)

// request is one entry of a client's deck.
type request struct {
	kind string // degree, khop, ppr, stats, or rw (a write, then a 2-hop read from src)
	src  int
	k    int
	// rw only:
	inserts [][2]int // the first rwFanout lead out of src
	deletes [][2]int // what the same client inserted one block earlier
}

func (r request) url() string {
	switch r.kind {
	case "degree":
		return fmt.Sprintf("/query/degree?v=%d", r.src)
	case "khop", "rw":
		return fmt.Sprintf("/query/khop?src=%d&k=%d", r.src, r.k)
	case "ppr":
		return fmt.Sprintf("/query/ppr?src=%d&k=%d", r.src, r.k)
	}
	return "/stats"
}

func (r request) ingestBody() string {
	var sb strings.Builder
	sb.WriteString(`{"inserts":[`)
	for i, e := range r.inserts {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d,1]", e[0], e[1])
	}
	sb.WriteString(`],"deletes":[`)
	for i, e := range r.deletes {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d]", e[0], e[1])
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// answer is what came back for one request.
type answer struct {
	code   int
	header http.Header
	body   []byte
	// rw only: the status of the write that preceded the read.
	writeCode int
}

// readMix is the composition of one deck unit; a block holds whole units, so
// every block asks the same questions in a different order.
type readMix struct {
	unit                int
	degree, ppr, stats  int
	khop1, khop2, khop3 int
}

// The endpoints' latencies form separate modes, in the order degree < 1-hop
// < 2-hop < 3-hop < PPR < stats, and a percentile that falls near the edge
// of a mode jumps between runs. The shares put each reported percentile in
// the middle of one mode.

// serveReadMix: the 2-hop reads span the 30th to the 70th percentile, so
// op_p50_ms is their median; the PPRs span the 80th to the 98th, so
// op_p90_ms is the median PPR. Throughput is PPR-dominated.
var serveReadMix = readMix{unit: 50, degree: 5, khop1: 10, khop2: 20, khop3: 5, ppr: 9, stats: 1}

// shardReadMix: 2-hop reads from the 17th to the 77th percentile, 3-hop
// reads from there to the 97th, so op_p50_ms and op_p90_ms are about the
// median 2-hop and the median 3-hop scatter-gather. A 3-hop read takes 2 to
// 100 ms depending on its source, so its median needs many samples: a fifth
// of the deck. One sharded PPR per 40 requests still takes four fifths of
// the time and sets the throughput.
var shardReadMix = readMix{unit: 40, degree: 2, khop1: 5, khop2: 24, khop3: 8, ppr: 1}

// warmMix is the warm-up deck of the read workloads: every endpoint once, so
// that set-up time does not depend on what a shuffle happened to deal.
var warmMix = readMix{unit: 6, degree: 1, khop1: 1, khop2: 1, khop3: 1, ppr: 1, stats: 1}

// serving is the three serving workloads: a graph behind serve.Server,
// driven in-process through ServeHTTP (no sockets), closed loop: a client
// sends its next request when the previous one has been answered, because
// callers of a query service wait for replies, and an open-loop generator
// would compete with the server for the two cores.
type serving struct {
	name     string
	id       int      // distinguishes the workloads' random streams
	shards   int      // 1: serve.NewEngineBackend; 2: shard.NewStore behind serve.NewShardedBackend
	callers  int      // concurrent clients of an untraced run
	mix      *readMix // nil for the read-write workload
	blockOps int      // requests (ops) per client and block
	opSecs   float64  // about what one op of a single client takes
	sz       sizes
	tr       *tracer

	seed uint64
	in   *graphInput
	// Oracle references of the static graph.
	refStats serve.GraphStats

	srv   *serve.Server
	store *shard.Store
	be    serve.Backend

	counts  serveCounts
	applied [maxClients][]request // acknowledged writes, in each client's order
	pprSeen int
	nextReq int
}

// The two read workloads drive one client. A PPR holds the engine (and, on
// two shards, both cores) for 40 to 500 ms, so with a second client what a
// sub-millisecond read measures is whether it met the other client's PPR.
// Measured with two clients: on two shards the median read of a block was
// 1.2 ms or 24 ms depending on how the two decks happened to align; on one
// engine op_p50_ms of eight runs on one seed spread by 72 % against 9 % with
// one client, at the same throughput, because flushes serialize anyway.
func newServeRead(sz sizes, tr *tracer) workload {
	return &serving{name: "serve-read", id: 3, shards: 1, callers: 1, mix: &serveReadMix, blockOps: sz.serveBlock, opSecs: 0.0065, sz: sz, tr: tr}
}

func newShard2Read(sz sizes, tr *tracer) workload {
	return &serving{name: "shard2-read", id: 4, shards: 2, callers: 1, mix: &shardReadMix, blockOps: sz.shardBlock, opSecs: 0.027, sz: sz, tr: tr}
}

func newShard2RW(sz sizes, tr *tracer) workload {
	return &serving{name: "shard2-rw", id: 5, shards: 2, callers: 2, blockOps: sz.rwBlock, opSecs: 0.008, sz: sz, tr: tr}
}

func (w *serving) clients() int { return w.callers }

func (w *serving) blockSeconds() float64 { return w.opSecs * float64(w.blockOps) }

func (w *serving) counters() serveCounts { return w.counts }

func (w *serving) generate(seed uint64) {
	w.seed = seed
	w.in = newGraphInput(w.sz.serveScale, edgeFactor, seed)
	sym := refalgo.NewAdjacency(symmetrized(w.in.g))
	w.refStats = serve.GraphStats{Nodes: w.in.g.N, Edges: len(w.in.g.Edges), Triangles: refalgo.TriangleCount(sym)}
	var wedges float64
	for v := 0; v < sym.N; v++ {
		d := float64(len(sym.Neighbors(v)))
		wedges += d * (d - 1) / 2
	}
	if wedges > 0 {
		w.refStats.Clustering = 3 * float64(w.refStats.Triangles) / wedges
	}
}

// deck is what one client asks in one block: a pure function of the seed.
func (w *serving) deck(client, block int) []request {
	rng := generate.NewRNG(subSeed(w.seed, w.id, client, block))
	src := func() int { return w.in.sources[rng.Intn(len(w.in.sources))] }
	if w.mix == nil {
		d := w.rwDeck(rng, client, block)
		if block > 0 {
			prev := w.rwDeck(generate.NewRNG(subSeed(w.seed, w.id, client, block-1)), client, block-1)
			for i := range prev {
				d[i].deletes = prev[i].inserts
			}
		}
		return d
	}
	mix, units := w.mix, w.blockOps/w.mix.unit
	if block == 0 {
		mix, units = &warmMix, 1
	}
	var d []request
	for u := 0; u < units; u++ {
		add := func(n int, kind string, k int) {
			for i := 0; i < n; i++ {
				d = append(d, request{kind: kind, src: src(), k: k})
			}
		}
		add(mix.degree, "degree", 0)
		add(mix.khop1, "khop", 1)
		add(mix.khop2, "khop", 2)
		add(mix.khop3, "khop", 3)
		add(mix.ppr, "ppr", pprTopK)
		add(mix.stats, "stats", 0)
	}
	for i, p := range rng.Perm(len(d)) {
		d[i], d[p] = d[p], d[i]
	}
	return d
}

// rwDeck: client c writes only rows of parity c, so the two clients' writes
// commute and the final edge set does not depend on how they interleaved.
// Each write deletes what the same position of the client's previous block
// inserted, which keeps the graph's size stationary.
func (w *serving) rwDeck(rng *generate.RNG, client, block int) []request {
	n := w.in.g.N
	row := func() int { return (rng.Intn(n/2))*2 + client }
	var mine []int
	for _, s := range w.in.sources {
		if s%2 == client {
			mine = append(mine, s)
		}
	}
	d := make([]request, w.blockOps)
	if block == 0 {
		d = d[:w.sz.rwWarm]
	}
	for i := range d {
		r := request{kind: "rw", src: mine[rng.Intn(len(mine))], k: 2}
		for len(r.inserts) < rwInserts {
			from := r.src
			if len(r.inserts) >= rwFanout {
				from = row()
			}
			if to := rng.Intn(n); to != from {
				r.inserts = append(r.inserts, [2]int{from, to})
			}
		}
		d[i] = r
	}
	return d
}

func (w *serving) setup(clients int) setupResult {
	if err := w.build(); err != nil {
		return setupResult{attempted: 1, failed: 1}
	}
	w.counts = serveCounts{}
	w.applied = [maxClients][]request{}
	w.pprSeen = 0
	return warmed(w.run(0, clients))
}

// build loads the graph the way cmd/grbserve does: one sealed batch through
// the backend's ingest path, a compaction, then the server around it.
func (w *serving) build() error {
	b := stream.NewBatch[float64]()
	for _, e := range w.in.g.Edges {
		b.Insert(e.Src, e.Dst, 1)
	}
	w.store = nil
	if w.shards == 1 {
		eng, err := serve.NewEngine(serve.Config{N: w.in.g.N})
		if err != nil {
			return err
		}
		if err := eng.Ingest(b); err != nil {
			return err
		}
		if err := eng.Compact(); err != nil {
			return err
		}
		w.be = serve.NewEngineBackend(eng)
	} else {
		cfg := shard.Config{N: w.in.g.N, Shards: w.shards}
		if w.mix == nil {
			// A run writes about 15k updates per shard, under the default
			// watermark of 32768; a lower one puts two or three compactions
			// per shard inside every run.
			cfg.CompactAfter = w.sz.compactAfter
		}
		st, err := shard.NewStore(cfg)
		if err != nil {
			return err
		}
		if err := st.Ingest(b); err != nil {
			return err
		}
		if err := st.Compact(); err != nil {
			return err
		}
		w.store, w.be = st, serve.NewShardedBackend(st)
	}
	w.srv = serve.NewServer(serve.Options{
		Backend: w.be, MaxConcurrent: 4, DefaultTimeout: requestTimeout, RetrySeed: w.seed,
	})
	return nil
}

func (w *serving) block(b, clients int) blockResult { return w.run(b, clients) }

// run sends every client's deck for the block.
func (w *serving) run(block, clients int) blockResult {
	decks := make([][]request, clients)
	answers := make([][]answer, clients)
	lats := make([][]float64, clients)
	count := 0
	for c := range decks {
		decks[c] = w.deck(c, block)
		count = len(decks[c])
		answers[c] = make([]answer, count)
		lats[c] = make([]float64, count)
	}
	reqBase := w.nextReq
	w.nextReq += clients * count

	var res blockResult
	res.win = measure(func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i, r := range decks[c] {
					body := ""
					if r.kind == "rw" {
						body = r.ingestBody()
					}
					t0 := time.Now()
					answers[c][i] = w.send(r, body, reqBase+c*count+i)
					lats[c][i] = time.Since(t0).Seconds() * 1e3
				}
			}(c)
		}
		wg.Wait()
	})
	for c := range decks {
		res.lat = append(res.lat, lats[c]...)
		for i, r := range decks[c] {
			if a := answers[c][i]; !w.check(c, r, a) {
				res.failed++
				fmt.Fprintf(os.Stderr, "bench: %s seed %d block %d client %d op %d failed: %s %s answered %d (write %d) stale=%q degraded=%q\n",
					w.name, w.seed, block, c, i, r.kind, r.url(), a.code, a.writeCode,
					a.header.Get("X-Graphblas-Stale"), a.header.Get("X-Graphblas-Degraded"))
			}
		}
	}
	if w.store != nil {
		if d := w.store.RedoDepth(); d > w.counts.redoDepthMax {
			w.counts.redoDepthMax = d
		}
	}
	return res
}

// send performs one op: for a read, one GET; for rw, the POST and then the
// GET, which the caller times as one.
func (w *serving) send(r request, body string, req int) answer {
	var a answer
	root := -1
	if r.kind == "rw" {
		root = w.tr.begin("op."+w.name, -1, req)
		defer w.tr.end(root)
		rec := w.call(http.MethodPost, "/ingest", body, "ingest", root, req)
		a.writeCode = rec.Code
	}
	kind := r.kind
	if kind == "rw" {
		kind = "khop"
	}
	rec := w.call(http.MethodGet, r.url(), "", kind, root, req)
	a.code, a.header, a.body = rec.Code, rec.Header(), rec.Body.Bytes()
	return a
}

func (w *serving) call(method, url, body, kind string, parent, req int) *httptest.ResponseRecorder {
	var hr *http.Request
	if body != "" {
		hr = httptest.NewRequest(method, url, strings.NewReader(body))
	} else {
		hr = httptest.NewRequest(method, url, nil)
	}
	rec := httptest.NewRecorder()
	id := w.tr.begin("serve.http."+kind, parent, req)
	w.srv.ServeHTTP(rec, hr)
	w.tr.end(id)
	return rec
}

// check holds one answer against the oracle and tallies its headers. It runs
// on one goroutine, after the block's clock has stopped.
func (w *serving) check(client int, r request, a answer) bool {
	w.counts.requests++
	if a.code == http.StatusServiceUnavailable {
		w.counts.shed++
	}
	stale := a.header.Get("X-Graphblas-Stale") == "true"
	degraded := a.header.Get("X-Graphblas-Degraded") == "true"
	if stale {
		w.counts.stale++
	}
	if degraded {
		w.counts.degraded++
	}
	if a.header.Get("X-Graphblas-Attempts") != "" {
		w.counts.retried++
	}
	if a.code != http.StatusOK {
		return false
	}
	switch r.kind {
	case "rw":
		if a.writeCode != http.StatusOK {
			return false
		}
		w.applied[client] = append(w.applied[client], r)
		if stale {
			return true // an older snapshot, said so: correct, and counted
		}
		var got struct{ Vertices []int }
		if json.Unmarshal(a.body, &got) != nil {
			return false
		}
		for _, e := range r.inserts[:rwFanout] {
			if i := sort.SearchInts(got.Vertices, e[1]); i == len(got.Vertices) || got.Vertices[i] != e[1] {
				return false
			}
		}
		return true
	case "khop":
		return khopMatches(a.body, khopSet(w.in.adj, r.src, r.k))
	case "degree":
		var got struct{ Degree int }
		return json.Unmarshal(a.body, &got) == nil && got.Degree == len(w.in.adj.Neighbors(r.src))
	case "ppr":
		w.pprSeen++
		if (w.pprSeen-1)%pprCheckEvery != 0 {
			return true
		}
		maxIter := pprMaxIter
		if degraded {
			maxIter = pprDegraded
		}
		return pprMatches(a.body, pprDense(w.in.adj, r.src, pprDamping, pprTol, maxIter), r.k)
	}
	var got struct{ Stats serve.GraphStats }
	return json.Unmarshal(a.body, &got) == nil &&
		got.Stats.Nodes == w.refStats.Nodes && got.Stats.Edges == w.refStats.Edges &&
		got.Stats.Triangles == w.refStats.Triangles && closeTo(got.Stats.Clustering, w.refStats.Clustering, 1e-9)
}

func khopMatches(body []byte, want []int) bool {
	var got struct{ Vertices []int }
	if json.Unmarshal(body, &got) != nil || len(got.Vertices) != len(want) {
		return false
	}
	for i := range want {
		if got.Vertices[i] != want[i] {
			return false
		}
	}
	return true
}

// pprMatches accepts a ranking whose every score is the oracle's score of
// that vertex and whose scores are the oracle's k largest. Ties may order
// either way, so vertices are compared through their scores.
func pprMatches(body []byte, rank []float64, k int) bool {
	var got struct{ Ranks []serve.Ranked }
	if json.Unmarshal(body, &got) != nil {
		return false
	}
	const tol = 1e-8 // the sharded path promises the single engine's ranks to 1e-9
	want := topScores(rank, k)
	if len(got.Ranks) != len(want) {
		return false
	}
	for i, r := range got.Ranks {
		if r.Vertex < 0 || r.Vertex >= len(rank) || !closeTo(r.Score, rank[r.Vertex], tol) || !closeTo(r.Score, want[i], tol) {
			return false
		}
	}
	return true
}

// finish is the quiesced final-state check of the read-write workload: with
// no writer left, 2-hop reads must be exact on the final edge set.
func (w *serving) finish() (attempted, failed int) {
	if w.mix != nil {
		return 0, 0
	}
	edges := make(map[[2]int]bool, len(w.in.g.Edges))
	for _, e := range w.in.g.Edges {
		edges[[2]int{e.Src, e.Dst}] = true
	}
	for _, ops := range w.applied {
		for _, r := range ops {
			// One batch holds inserts before deletes, last update wins.
			for _, e := range r.inserts {
				edges[e] = true
			}
			for _, e := range r.deletes {
				delete(edges, e)
			}
		}
	}
	final := &generate.Graph{N: w.in.g.N}
	for e := range edges {
		final.Edges = append(final.Edges, generate.Edge{Src: e[0], Dst: e[1], Weight: 1})
	}
	adj := refalgo.NewAdjacency(final)
	for i := 0; i < finishSources && i < len(w.in.sources); i++ {
		attempted++
		src := w.in.sources[i]
		rec := w.call(http.MethodGet, fmt.Sprintf("/query/khop?src=%d&k=2", src), "", "khop", -1, -1)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Graphblas-Stale") == "true" ||
			!khopMatches(rec.Body.Bytes(), khopSet(adj, src, 2)) {
			failed++
			fmt.Fprintf(os.Stderr, "bench: %s seed %d final-state read from %d failed: answered %d stale=%q\n",
				w.name, w.seed, src, rec.Code, rec.Header().Get("X-Graphblas-Stale"))
		}
	}
	return attempted, failed
}
