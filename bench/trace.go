package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"graphblas"
	"graphblas/internal/obs"
)

// span is one record of the trace file. Bench spans are opened by this
// package around its calls into a layer; engine spans are the program's own
// obs spans, delivered through the graphblas.SetTracer hook. Spans of one
// timed op share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused this one, -1 for a root
	Req    int    `json:"req"`
	// Engine marks a span the program delivered. For an "engine.<op>" span
	// Start is the moment a worker picked the op up, so that the time the op
	// sat in the nonblocking queue stays with the caller that was still
	// enqueueing; Enqueued and Kernel are its other two stamps.
	Engine   bool  `json:"engine,omitempty"`
	Enqueued int64 `json:"enqueued_ns,omitempty"`
	Kernel   int64 `json:"kernel_ns,omitempty"`
}

// maxSpans bounds the memory of one traced pass; later spans are counted in
// dropped and left out.
const maxSpans = 400_000

// tracer collects spans in memory. Its methods are safe on a nil receiver
// and do nothing while it is paused, so workload code calls them
// unconditionally and untraced runs pay one branch.
type tracer struct {
	mu      sync.Mutex
	active  bool
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// resume registers the tracer with the engine and starts recording; pause
// does the reverse. The engine allocates its spans only while a tracer is
// registered, which is what makes the untraced blocks of a traced run a fair
// baseline for the tracing overhead.
func (t *tracer) resume() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.active = true
	t.mu.Unlock()
	graphblas.SetTracer(t)
}

func (t *tracer) pause() {
	if t == nil {
		return
	}
	graphblas.SetTracer(nil)
	t.mu.Lock()
	t.active = false
	t.mu.Unlock()
}

// record appends sp and returns its index, or -1 while paused or full.
func (t *tracer) record(sp span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.active {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, sp)
	return len(t.spans) - 1
}

// begin opens a bench span and returns its index, -1 when not recording.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	return t.record(span{Name: name, Start: time.Since(t.t0).Nanoseconds(), End: -1, Parent: parent, Req: req})
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// OnSpan implements obs.Tracer: flush workers deliver the engine's spans
// here, concurrently. The server's own request spans come through the same
// hook and are left out: the bench span around ServeHTTP covers the same
// interval, and with them gone every delivered span is an engine op.
func (t *tracer) OnSpan(s *obs.Span) {
	if strings.HasPrefix(s.Op, "serve.") {
		return
	}
	rel := func(at time.Time) int64 {
		if at.IsZero() {
			return 0
		}
		return at.Sub(t.t0).Nanoseconds()
	}
	sp := span{
		Name: "engine." + s.Op, Parent: -1, Req: -1, Engine: true,
		Start: rel(s.Scheduled), End: rel(s.Done),
		Enqueued: rel(s.Enqueued), Kernel: rel(s.Kernel),
	}
	if sp.Start == 0 {
		sp.Start = sp.Enqueued
	}
	t.record(sp)
}

// link gives every span the program delivered its cause: the innermost bench
// span whose interval holds the delivered span's whole life, enqueue to done.
// The traced pass drives one client, so bench spans nest and at most one
// chain of them is open at any moment. A delivered span that outlives every
// bench span (a flush forced after the op returned) stays a root.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	born := func(i int) int64 {
		if spans[i].Engine {
			return spans[i].Enqueued
		}
		return spans[i].Start
	}
	var order []int
	for i, s := range spans {
		if s.End >= 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if born(x) != born(y) {
			return born(x) < born(y)
		}
		return !spans[x].Engine && spans[y].Engine
	})
	var open []int // bench spans not yet closed, outermost first
	for _, i := range order {
		for n := len(open); n > 0 && spans[open[n-1]].End < born(i); n = len(open) {
			open = open[:n-1]
		}
		if !spans[i].Engine {
			open = append(open, i)
			continue
		}
		for d := len(open) - 1; d >= 0; d-- {
			if p := spans[open[d]]; p.End >= spans[i].End {
				spans[i].Parent, spans[i].Req = open[d], p.Req
				break
			}
		}
	}
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(spans []span, id int, children [][]int) int64 {
	s := spans[id]
	iv := make([][2]int64, 0, len(children[id]))
	for _, c := range children[id] {
		iv = append(iv, [2]int64{spans[c].Start, spans[c].End})
	}
	return (s.End - s.Start) - unionLength(iv, s.Start, s.End)
}

// childIndex lists every span's direct children.
func childIndex(spans []span) [][]int {
	ch := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			ch[s.Parent] = append(ch[s.Parent], i)
		}
	}
	return ch
}

// write stores the trace under dir as trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, t.dropped, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
