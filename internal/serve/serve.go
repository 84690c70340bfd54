// Package serve is the fault-tolerant graph query server built over the
// GraphBLAS engine: HTTP endpoints for k-hop neighborhoods, personalized-
// PageRank rankings, and triangle/clustering statistics against a live
// streaming graph, with the resilience machinery production serving needs —
// per-request deadlines threaded into the engine's flush scheduler
// (WaitContext), admission control with load shedding, seeded-jitter retries
// of transient engine failures, a circuit breaker around compaction, and a
// graceful-degradation ladder (full answer → capped iterations → last pinned
// epoch with a staleness header → 503) that keeps responses correct-or-
// refused, never wrong.
//
// The degradation ladder, top to bottom:
//
//  1. admission — over the queue watermark or draining: 503 + Retry-After.
//  2. deadline  — the request deadline rides core.WaitContext into the DAG
//     scheduler; an expired deadline stops kernel dispatch, and undispatched
//     work is abandoned as Canceled.
//  3. retry     — Canceled/InvalidObject/OOM/Panic results are transient
//     (the engine rolls outputs back); jittered exponential backoff.
//  4. degrade   — under queue pressure PPR runs with a capped iteration
//     budget (X-Graphblas-Degraded); when a fresh epoch cannot be pinned the
//     last good snapshot is served (X-Graphblas-Stale).
//
// Every successful response names the epoch it was computed from, so a
// client — and the chaos harness — can hold the server to snapshot
// consistency: each answer reflects one atomic prefix of the update stream.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"graphblas/internal/core"
	"graphblas/internal/obs"
	"graphblas/internal/stream"
)

// Options configures a Server. Zero values get serving-sensible defaults.
// The retry count, the PPR sweep budgets and the queue pressure that
// degrades a query are the package constants below.
type Options struct {
	// Backend is the graph store the server answers from (required).
	Backend Backend

	// MaxConcurrent bounds simultaneously executing requests (default 4).
	MaxConcurrent int
	// MaxQueue bounds requests waiting behind them before shedding
	// (default 2×MaxConcurrent).
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the client sends none
	// (default 2s). Clients may lower it with ?timeout=150ms.
	DefaultTimeout time.Duration

	// RetrySeed seeds backoff jitter; RetryBase and RetryMax bound the
	// backoff between the retryAttempts tries.
	RetrySeed uint64
	RetryBase time.Duration // default 2ms
	RetryMax  time.Duration // default 50ms
}

const (
	// retryAttempts bounds the tries of one retried query.
	retryAttempts = 3
	// pprMaxIter is the full-quality power-iteration budget, pprDegradedIter
	// the capped budget served under load.
	pprMaxIter      = 50
	pprDegradedIter = 8
	// degradePressure is the admission-queue fraction from which quality is
	// reduced.
	degradePressure = 0.5
)

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 2 * o.MaxConcurrent
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 2 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 2 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 50 * time.Millisecond
	}
	return o
}

// Server is the HTTP query server. Create with NewServer; it implements
// http.Handler.
type Server struct {
	opt     Options
	be      Backend
	adm     *Admission
	retrier *Retrier
	mux     *http.ServeMux
	ready   atomic.Bool
}

// NewServer assembles the server around opt.Backend.
func NewServer(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:     opt,
		be:      opt.Backend,
		adm:     NewAdmission(opt.MaxConcurrent, opt.MaxQueue),
		retrier: NewRetrier(opt.RetrySeed, retryAttempts, opt.RetryBase, opt.RetryMax),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/query/khop", s.handleKHop)
	s.mux.HandleFunc("/query/ppr", s.handlePPR)
	s.mux.HandleFunc("/query/degree", s.handleDegree)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.ready.Store(true)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the server: readiness flips false (load balancers stop
// routing), no new requests are admitted, and the call blocks until in-
// flight requests finish or ctx expires. The engine's pending work is then
// flushed so nothing accepted is lost.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.adm.Close()
	if err := s.adm.Drain(ctx); err != nil {
		return err
	}
	return s.be.Drain(ctx)
}

// writeJSON emits one JSON response and feeds the status metrics.
func writeJSON(w http.ResponseWriter, route string, code int, v any) {
	Requests.With(route).Inc()
	Statuses.With(fmt.Sprintf("%dxx", code/100)).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//grblint:ignore swallowederr the status line is already sent; a failed body write has no channel left to report on
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// unavailable emits 503 with a Retry-After hint — the shed/drain/throttle
// answer that tells a well-behaved client to back off briefly.
func unavailable(w http.ResponseWriter, route string, msg string) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, route, http.StatusServiceUnavailable, errorBody{Error: msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":   "ok",
		"inflight": s.adm.InflightCount(),
		"queued":   s.adm.QueueDepth(),
	}
	for k, v := range s.be.Health() {
		body[k] = v
	}
	writeJSON(w, "healthz", http.StatusOK, body)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		unavailable(w, "readyz", "draining")
		return
	}
	writeJSON(w, "readyz", http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	Requests.With("metrics").Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	//grblint:ignore swallowederr scrape responses are best-effort; a broken client connection is not a server fault
	_ = obs.WriteText(w)
}

// requestContext derives the per-request deadline: the client's ?timeout=
// override if present (capped at the server default), else the default.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.opt.DefaultTimeout
	if t := r.URL.Query().Get("timeout"); t != "" {
		if td, err := time.ParseDuration(t); err == nil && td > 0 && td < d {
			d = td
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// intParam parses one required non-negative integer query parameter.
func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		if def >= 0 {
			return def, nil
		}
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("parameter %q must be a non-negative integer", name)
	}
	return v, nil
}

// runQuery is the shared admission → deadline → retry → respond spine of the
// query endpoints. fn runs under the request context against a pinned view
// and returns the response payload; degraded reports whether the ladder
// reduced quality before fn ran. Each request gets an obs span — endpoint as
// the op, backend fan-out, and the outcome the ladder settled on — costing
// nothing when no tracer is registered (Begin returns nil, every setter is
// nil-safe).
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, route string,
	fn func(ctx context.Context, v View, degraded bool) (any, error)) {

	start := time.Now()
	defer func() { Latency.With(route).Observe(time.Since(start).Seconds()) }()

	sp := obs.Begin("serve." + route)
	sp.NoteFanout(s.be.Shards())
	defer obs.Emit(sp)

	ctx, cancel := s.requestContext(r)
	defer cancel()

	release, err := s.adm.Acquire(ctx)
	if err != nil {
		sp.Finish(obs.OutcomeShortCircuit, err)
		switch {
		case errors.Is(err, ErrShed), errors.Is(err, ErrDraining):
			unavailable(w, route, err.Error())
		default: // deadline expired while queued: the server was too busy
			unavailable(w, route, "deadline expired in admission queue")
		}
		return
	}
	defer release()
	sp.MarkScheduled()

	degraded := s.adm.Pressure() >= degradePressure
	if degraded {
		DegradedServed.Inc()
	}

	var payload any
	var stale bool
	var epoch uint64
	sp.MarkKernel()
	attempts, err := s.retrier.Do(ctx, func(ctx context.Context) error {
		v, st, serr := s.be.View(ctx)
		if serr != nil {
			return serr
		}
		out, qerr := fn(ctx, v, degraded)
		if qerr != nil {
			return qerr
		}
		payload, stale, epoch = out, st, v.Epoch()
		return nil
	})
	if attempts > 1 {
		w.Header().Set("X-Graphblas-Attempts", strconv.Itoa(attempts))
		sp.NoteRetry()
	}
	if err != nil {
		if core.InfoOf(err) == core.Canceled || errors.Is(err, context.DeadlineExceeded) {
			sp.Finish(obs.OutcomeCanceled, err)
			writeJSON(w, route, http.StatusGatewayTimeout, errorBody{Error: err.Error()})
			return
		}
		sp.Finish(obs.OutcomeError, err)
		writeJSON(w, route, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	sp.Finish(obs.OutcomeOK, nil)
	w.Header().Set("X-Graphblas-Epoch", strconv.FormatUint(epoch, 10))
	if stale {
		StaleServed.Inc()
		w.Header().Set("X-Graphblas-Stale", "true")
	}
	if degraded {
		w.Header().Set("X-Graphblas-Degraded", "true")
	}
	writeJSON(w, route, http.StatusOK, payload)
}

func (s *Server) handleKHop(w http.ResponseWriter, r *http.Request) {
	src, err := intParam(r, "src", -1)
	if err != nil {
		writeJSON(w, "khop", http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	k, err := intParam(r, "k", 2)
	if err != nil {
		writeJSON(w, "khop", http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if src >= s.be.N() {
		writeJSON(w, "khop", http.StatusBadRequest, errorBody{Error: "src out of range"})
		return
	}
	s.runQuery(w, r, "khop", func(ctx context.Context, v View, _ bool) (any, error) {
		verts, err := v.KHop(ctx, src, k)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"source": src, "k": k, "epoch": v.Epoch(),
			"count": len(verts), "vertices": verts,
		}, nil
	})
}

func (s *Server) handleDegree(w http.ResponseWriter, r *http.Request) {
	src, err := intParam(r, "v", -1)
	if err != nil {
		writeJSON(w, "degree", http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if src >= s.be.N() {
		writeJSON(w, "degree", http.StatusBadRequest, errorBody{Error: "v out of range"})
		return
	}
	s.runQuery(w, r, "degree", func(ctx context.Context, v View, _ bool) (any, error) {
		deg, err := v.Degree(ctx, src)
		if err != nil {
			return nil, err
		}
		return map[string]any{"vertex": src, "epoch": v.Epoch(), "degree": deg}, nil
	})
}

func (s *Server) handlePPR(w http.ResponseWriter, r *http.Request) {
	src, err := intParam(r, "src", -1)
	if err != nil {
		writeJSON(w, "ppr", http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	k, err := intParam(r, "k", 10)
	if err != nil {
		writeJSON(w, "ppr", http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if src >= s.be.N() {
		writeJSON(w, "ppr", http.StatusBadRequest, errorBody{Error: "src out of range"})
		return
	}
	s.runQuery(w, r, "ppr", func(ctx context.Context, v View, degraded bool) (any, error) {
		maxIter := pprMaxIter
		if degraded {
			maxIter = pprDegradedIter
		}
		ranks, iters, err := v.PPRTopK(ctx, src, k, 0.85, 1e-6, maxIter)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"source": src, "k": k, "epoch": v.Epoch(),
			"iterations": iters, "degraded": degraded, "ranks": ranks,
		}, nil
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.runQuery(w, r, "stats", func(ctx context.Context, v View, _ bool) (any, error) {
		st, err := v.Stats(ctx)
		if err != nil {
			return nil, err
		}
		return map[string]any{"epoch": v.Epoch(), "stats": st}, nil
	})
}

// ingestBody is the wire form of one update batch. The store keeps each
// edge's weight, but the queries read structure only: k-hop and PPR answer
// the same at any stored weight.
type ingestBody struct {
	// Inserts are [i, j, weight] triples (weight defaults to 1 when the
	// inner array has two elements).
	Inserts [][]float64 `json:"inserts"`
	// Deletes are [i, j] pairs.
	Deletes [][]int `json:"deletes"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, "ingest", http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	if !s.ready.Load() {
		unavailable(w, "ingest", "draining")
		return
	}
	sp := obs.Begin("serve.ingest")
	sp.NoteFanout(s.be.Shards())
	defer obs.Emit(sp)
	var body ingestBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		sp.Finish(obs.OutcomeShortCircuit, err)
		writeJSON(w, "ingest", http.StatusBadRequest, errorBody{Error: "bad JSON: " + err.Error()})
		return
	}
	n := s.be.N()
	b := stream.NewBatch[float64]()
	for _, ins := range body.Inserts {
		if len(ins) < 2 {
			writeJSON(w, "ingest", http.StatusBadRequest, errorBody{Error: "insert needs [i, j] or [i, j, w]"})
			return
		}
		i, j := int(ins[0]), int(ins[1])
		if i < 0 || j < 0 || i >= n || j >= n {
			writeJSON(w, "ingest", http.StatusBadRequest, errorBody{Error: "insert index out of range"})
			return
		}
		wgt := 1.0
		if len(ins) > 2 {
			wgt = ins[2]
		}
		b.Insert(i, j, wgt)
	}
	for _, del := range body.Deletes {
		if len(del) != 2 || del[0] < 0 || del[1] < 0 || del[0] >= n || del[1] >= n {
			writeJSON(w, "ingest", http.StatusBadRequest, errorBody{Error: "delete needs in-range [i, j]"})
			return
		}
		b.Delete(del[0], del[1])
	}
	sp.MarkKernel()
	if err := s.be.Ingest(b); err != nil {
		if errors.Is(err, ErrBackpressure) {
			sp.Finish(obs.OutcomeShortCircuit, err)
			unavailable(w, "ingest", err.Error())
			return
		}
		sp.Finish(obs.OutcomeError, err)
		if errors.Is(err, ErrIndeterminate) {
			// The batch is partially applied and converging via redo: it may
			// surface in a later epoch despite the failure status, so the
			// client must not model it as never-happened.
			w.Header().Set("X-Graphblas-Indeterminate", "true")
		}
		writeJSON(w, "ingest", http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	sp.Finish(obs.OutcomeOK, nil)
	writeJSON(w, "ingest", http.StatusOK, map[string]int{"applied": b.Len()})
}
