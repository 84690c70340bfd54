package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// A tail percentile is reported only where ten samples lie beyond it: 100
// timed ops carry p90, 99 do not.
func TestTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := samplesBeyond(xs, 0.90); got != 10 {
		t.Errorf("100 samples: %d beyond p90, want 10", got)
	}
	if got := samplesBeyond(xs[:99], 0.90); got >= 10 {
		t.Errorf("99 samples: %d beyond p90, want fewer than 10", got)
	}
	if got := samplesBeyond(xs, 0.99); got != 1 {
		t.Errorf("100 samples: %d beyond p99, want 1", got)
	}
}

// The spread must be the one the driver computes with Python's
// statistics.quantiles(values, n=4): for 1..10 the quartiles are 2.75 and
// 8.25 around a median of 5.5.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !closeTo(got, want, 1e-12) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// Two sets of runs of the same code have to agree within half the bound; a
// spread beyond the bound fails every metric but setup_s.
func TestSelfcheckVerdict(t *testing.T) {
	timed := metricDef{name: "op_p50_ms", better: "lower", bound: 0.25}
	setup := metricDef{name: "setup_s", better: "lower", bound: 0.25}
	for _, c := range []struct {
		d             metricDef
		worse, sa, sb float64
		want          string
	}{
		{timed, 0.23, 0.02, 0.02, "FAIL"}, // within the bound, beyond half of it
		{timed, 0.12, 0.02, 0.02, "ok"},
		{timed, -0.30, 0.02, 0.02, "ok"}, // better is never a failure
		{timed, 0.01, 0.26, 0.02, "FAIL"},
		{timed, 0.01, 0.02, 0.10, "wide"},
		{setup, 0.01, 0.40, 0.40, "ok"},
		{setup, 0.13, 0.01, 0.01, "FAIL"},
	} {
		if got := selfcheckVerdict(c.d, c.worse, c.sa, c.sb); got != c.want {
			t.Errorf("%s worse=%v spreads=%v,%v: %s, want %s", c.d.name, c.worse, c.sa, c.sb, got, c.want)
		}
	}
}

// Every per-layer metric names an end-to-end metric it should move (or none,
// for the ones that qualify a run) and, if a single traced run measures it,
// a workload that exists.
func TestPerLayerTargetsExist(t *testing.T) {
	targets := []string{"bench.op_p50_ms", "bench.op_p90_ms", "bench.ops_per_s"}
	for _, e := range endToEnd {
		targets = append(targets, e.name)
	}
	known := map[string]bool{"": true}
	for _, name := range targets {
		known[name] = true
		for _, w := range workloads {
			known[w.name+"/"+name] = true
		}
	}
	for _, d := range perLayer {
		if !known[d.moves] {
			t.Errorf("%s: moves %q, which is neither an end-to-end metric nor a bench.op_* one", d.name, d.moves)
		}
		if _, err := findWorkload(d.on); d.on != "" && err != nil {
			t.Errorf("%s: measured on %q: %v", d.name, d.on, err)
		}
	}
}

// Every block yields its own estimate of each metric, and the run reports
// the median over blocks; the pooled samples only carry the counts.
func TestTallyAggregation(t *testing.T) {
	var tl tally
	tl.add(blockResult{lat: []float64{1, 2, 3, 4}, win: window{seconds: 2, allocBytes: 8e6, cpuSeconds: 0.008}})
	tl.add(blockResult{lat: []float64{10, 20}, win: window{seconds: 0.5, allocBytes: 1e6, cpuSeconds: 0.001}})
	tl.add(blockResult{lat: []float64{5, 6, 7}, win: window{seconds: 1, allocBytes: 9e6, cpuSeconds: 0.009}})
	if tl.ops != 9 || len(tl.lat) != 9 || tl.win.seconds != 3.5 {
		t.Errorf("pooled totals: ops=%d samples=%d seconds=%v", tl.ops, len(tl.lat), tl.win.seconds)
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"p50", tl.p50, []float64{2, 10, 6}},
		{"p90", tl.p90, []float64{4, 20, 7}},
		{"ops/s", tl.perSec, []float64{2, 4, 3}},
		{"MB/op", tl.allocMB, []float64{2, 0.5, 3}},
		{"cpu ms/op", tl.cpuMs, []float64{2, 0.5, 3}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("per-block %s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if got := median(tl.perSec); got != 3 {
		t.Errorf("median block throughput = %v, want 3", got)
	}
}

// The reference work costs processor time, allocates nothing (it runs between
// the program's blocks and must not move its GC pacing), and a time measured
// while it cost twice the nominal is halved.
func TestCalibration(t *testing.T) {
	c, err := newCalibration()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if ms := c.run(); ms <= 0 {
		t.Errorf("one calibration took %v ms", ms)
	}
	if n := testing.AllocsPerRun(2, func() { c.run() }); n != 0 {
		t.Errorf("a calibration allocates %v times", n)
	}
	if got := atReference(30, 1.5*calNominalMs, 2.5*calNominalMs); got != 15 {
		t.Errorf("30 ms between calibrations of 1.5 and 2.5 times the nominal = %v ms at reference speed, want 15", got)
	}
}

// Self time is the span's duration minus the union of its children, so
// overlapping children are not subtracted twice and a child reaching past
// its parent is clipped.
func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "serve.http.khop", Start: 0, End: 100, Parent: -1},
		{Name: "engine.VxM", Start: 10, End: 40, Parent: 0, Engine: true},
		{Name: "engine.ApplyV", Start: 30, End: 50, Parent: 0, Engine: true},
		{Name: "engine.EWiseAddV", Start: 90, End: 120, Parent: 0, Engine: true},
	}
	if got := selfTime(spans, 0, childIndex(spans)); got != 100-40-10 {
		t.Errorf("self time = %d, want 50", got)
	}
	if got := spanMetrics(spans, 100e-9)["serve.self_frac"]; !closeTo(got, 0.5, 1e-12) {
		t.Errorf("serve.self_frac = %v, want 0.5", got)
	}
}

// An engine span belongs to the innermost bench span that holds its whole
// life; one that outlives them all stays a root.
func TestLinkFindsInnermostEnclosingSpan(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op.x", Start: 0, End: 100, Parent: -1, Req: 7},
		{Name: "algorithms.bfs", Start: 10, End: 50, Parent: 0, Req: 7},
		{Name: "engine.VxM", Enqueued: 20, Start: 25, End: 30, Parent: -1, Req: -1, Engine: true},
		{Name: "engine.Assign", Enqueued: 40, Start: 60, End: 70, Parent: -1, Req: -1, Engine: true},
		{Name: "engine.Late", Enqueued: 90, Start: 95, End: 130, Parent: -1, Req: -1, Engine: true},
	}}
	tr.link()
	for i, want := range map[int]int{2: 1, 3: 0, 4: -1} {
		if got := tr.spans[i].Parent; got != want {
			t.Errorf("span %s: parent %d, want %d", tr.spans[i].Name, got, want)
		}
	}
	if tr.spans[2].Req != 7 || tr.spans[4].Req != -1 {
		t.Errorf("request ids: %d and %d", tr.spans[2].Req, tr.spans[4].Req)
	}
}

// Same seed, same requests; another seed, other requests — for every deck
// and every generated input.
func TestInputsAreSeedDeterministic(t *testing.T) {
	inputs := func(seed uint64) map[string]any {
		out := map[string]any{}
		for _, info := range workloads {
			w := info.build(tinySizes, nil)
			w.generate(seed)
			switch w := w.(type) {
			case *algoSuite:
				out[info.name] = []any{w.in.g.Edges, w.in.sources}
			case *flushSmall:
				out[info.name] = w.graphs
			case *serving:
				out[info.name] = []any{w.deck(0, 0), w.deck(1, 0), w.deck(0, 3), w.deck(1, 3)}
			}
		}
		return out
	}
	a, again, b := inputs(11), inputs(11), inputs(12)
	for _, info := range workloads {
		if !reflect.DeepEqual(a[info.name], again[info.name]) {
			t.Errorf("%s: seed 11 gave two different inputs", info.name)
		}
		if reflect.DeepEqual(a[info.name], b[info.name]) {
			t.Errorf("%s: seeds 11 and 12 gave the same inputs", info.name)
		}
	}
}

// Every block of a read deck asks the same mix of questions from eligible
// sources only; every write of the read-write deck stays in its client's
// rows and deletes what the previous block inserted.
func TestDeckShape(t *testing.T) {
	for _, mk := range []func(sizes, *tracer) workload{newServeRead, newShard2Read} {
		w := mk(tinySizes, nil).(*serving)
		w.generate(5)
		eligible := map[int]bool{}
		for _, s := range w.in.sources {
			eligible[s] = true
			if d := len(w.in.adj.Neighbors(s)); d < minSourceDegree {
				t.Fatalf("%s: source %d has out-degree %d", w.name, s, d)
			}
		}
		mix := func(d []request) map[string]int {
			m := map[string]int{}
			for _, r := range d {
				m[r.kind+string(rune('0'+r.k%10))]++
				if !eligible[r.src] {
					t.Errorf("%s: source %d is not eligible", w.name, r.src)
				}
			}
			return m
		}
		if a, b := mix(w.deck(0, 1)), mix(w.deck(1, 4)); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: blocks differ in composition: %v vs %v", w.name, a, b)
		}
	}
	w := newShard2RW(tinySizes, nil).(*serving)
	w.generate(5)
	prev, cur := w.deck(1, 2), w.deck(1, 3)
	for i, r := range cur {
		if len(r.inserts) != rwInserts || !reflect.DeepEqual(r.deletes, prev[i].inserts) {
			t.Fatalf("op %d: %d inserts, deletes do not undo the previous block", i, len(r.inserts))
		}
		for j, e := range r.inserts {
			if e[0]%2 != 1 || (j < rwFanout && e[0] != r.src) {
				t.Fatalf("op %d insert %d: edge %v from source %d of client 1", i, j, e, r.src)
			}
		}
	}
}

// corrupted wraps a workload and falsifies one oracle reference after
// generation, which is the same to the checks as a wrong answer.
type corrupted struct{ *algoSuite }

func (c corrupted) generate(seed uint64) {
	c.algoSuite.generate(seed)
	c.algoSuite.refTri++
}

// A wrong output fails its op, the run reports it, and the command exits
// non-zero.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	cfg := runConfig{workload: "algo-suite", seed: 3, seconds: 0.01, sz: tinySizes}
	good, err := runWorkload(cfg, newAlgoSuite, io.Discard)
	if err != nil || !good.Correct || good.Failed != 0 {
		t.Fatalf("honest run: %+v, %v", good, err)
	}
	bad, err := runWorkload(cfg, func(sz sizes, tr *tracer) workload {
		return corrupted{newAlgoSuite(sz, tr).(*algoSuite)}
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Correct || bad.Failed != bad.Attempted || bad.Failed == 0 {
		t.Errorf("corrupted run: correct=%v failed=%d attempted=%d", bad.Correct, bad.Failed, bad.Attempted)
	}
	if code := exitCode(bad, io.Discard); code == 0 {
		t.Errorf("exit code of an incorrect run = 0")
	}
}

func TestServingOracleRejectsCorruptedAnswers(t *testing.T) {
	w := newServeRead(tinySizes, nil).(*serving)
	w.generate(9)
	if s := w.setup(1); s.failed != 0 {
		t.Fatalf("set-up failed %d of %d warm-up ops", s.failed, s.attempted)
	}
	src := w.in.sources[0]
	for _, r := range []request{
		{kind: "khop", src: src, k: 2}, {kind: "degree", src: src},
		{kind: "ppr", src: src, k: pprTopK}, {kind: "stats"},
	} {
		w.pprSeen = 0 // the next PPR is one the dense oracle looks at
		a := w.send(r, "", -1)
		if !w.check(0, r, a) {
			t.Fatalf("%s: the server's own answer was rejected: %s", r.kind, a.body)
		}
		w.pprSeen = 0
		forged := a
		forged.body = forge(t, r.kind, a.body)
		if w.check(0, r, forged) {
			t.Errorf("%s: forged answer accepted: %s", r.kind, forged.body)
		}
		refused := a
		refused.code = http.StatusGatewayTimeout
		if w.check(0, r, refused) {
			t.Errorf("%s: a 504 counted as success", r.kind)
		}
	}
}

// forge changes one number of a response body.
func forge(t *testing.T, kind string, body []byte) []byte {
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	switch kind {
	case "khop":
		vs := v["vertices"].([]any)
		v["vertices"] = vs[:len(vs)-1]
	case "degree":
		v["degree"] = v["degree"].(float64) + 1
	case "ppr":
		first := v["ranks"].([]any)[0].(map[string]any)
		first["score"] = first["score"].(float64) * 1.001
	case "stats":
		st := v["stats"].(map[string]any)
		st["triangles"] = st["triangles"].(float64) + 1
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json and the code name the same workloads and metrics, with the
// same units, directions and bounds; and a run of every workload emits
// exactly the metrics the manifest lists.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q, code %q (or their reasons differ)", i, m.Workloads[i].Name, w.name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, the code %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := m.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end metric %d: manifest %+v, code %+v", i, e, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d per-layer metrics, the code %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := m.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer metric %d: manifest %+v, code %+v", i, e, d)
		}
	}

	names := func(res result) []string {
		var out []string
		for n := range res.Metrics {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	want := map[bool][]string{}
	for _, e := range m.EndToEnd {
		want[false] = append(want[false], e.Name)
	}
	for _, e := range m.PerLayer {
		want[true] = append(want[true], e.Name)
	}
	sort.Strings(want[false])
	sort.Strings(want[true])
	for _, w := range m.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOne(runConfig{
				workload: w.Name, seed: 21, seconds: 0.02, trace: trace, sz: tinySizes, traceDir: t.TempDir(),
			}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d failed of %d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if got := names(res); !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s trace=%v emitted %v, manifest lists %v", w.Name, trace, got, want[trace])
			}
		}
	}
}
