package core

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"graphblas/internal/faults"
	"graphblas/internal/obs"
)

// spanCollector is a concurrency-safe Tracer that keeps every emitted span.
type spanCollector struct {
	mu    sync.Mutex
	spans []*obs.Span
}

func (c *spanCollector) OnSpan(s *obs.Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

func (c *spanCollector) byOp(op string) []*obs.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*obs.Span
	for _, s := range c.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// withTracer installs a collector for the duration of a test.
func withTracer(t *testing.T) *spanCollector {
	t.Helper()
	c := &spanCollector{}
	prev := obs.SetTracer(c)
	t.Cleanup(func() { obs.SetTracer(prev) })
	return c
}

// TestObs_SpansFollowTheLifecycle: every deferred operation of a nonblocking
// sequence emits exactly one span carrying the method name, its program
// position, the kernel the engine chose for the multiply family, and ordered
// stage timestamps.
func TestObs_SpansFollowTheLifecycle(t *testing.T) {
	withMode(t, NonBlocking, func() {
		c := withTracer(t)
		s := plusTimesF64(t)
		a, _ := NewMatrix[float64](4, 4)
		_ = a.Build([]int{0, 1, 2, 3}, []int{1, 2, 3, 0}, []float64{1, 2, 3, 4}, NoAccum[float64]())
		out, _ := NewMatrix[float64](4, 4)
		if err := MxM(out, NoMask, plusF64(), s, a, a, nil); err != nil {
			t.Fatalf("MxM: %v", err)
		}
		if err := Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		spans := c.byOp("MxM")
		if len(spans) != 1 {
			t.Fatalf("MxM spans: got %d want 1", len(spans))
		}
		sp := spans[0]
		if sp.Outcome != obs.OutcomeOK {
			t.Errorf("outcome: got %v want ok (err=%v)", sp.Outcome, sp.Err)
		}
		if sp.Pos < 0 {
			t.Errorf("program position not assigned: %d", sp.Pos)
		}
		if sp.Layout == "" {
			t.Errorf("MxM span has no layout")
		}
		if sp.Bytes <= 0 {
			t.Errorf("MxM span has no bytes estimate: %d", sp.Bytes)
		}
		if sp.Enqueued.IsZero() || sp.Scheduled.IsZero() || sp.Kernel.IsZero() || sp.Done.IsZero() {
			t.Errorf("missing stage timestamp: %+v", sp)
		}
		if sp.Scheduled.Before(sp.Enqueued) || sp.Kernel.Before(sp.Scheduled) || sp.Done.Before(sp.Kernel) {
			t.Errorf("stage timestamps out of order: %+v", sp)
		}
		if sp.Duration() <= 0 || sp.QueueLatency() < 0 {
			t.Errorf("derived intervals wrong: dur=%v queue=%v", sp.Duration(), sp.QueueLatency())
		}
	})
}

// TestObs_SpanOutcomesOnFailureAndElision: a fault-failed op emits an error
// span with the rollback noted, and a dead store pruned by elision emits an
// elided span — the span stream covers every exit from the engine, not just
// commits.
func TestObs_SpanOutcomesOnFailureAndElision(t *testing.T) {
	withMode(t, NonBlocking, func() {
		c := withTracer(t)
		s := plusTimesF64(t)
		a, _ := NewMatrix[float64](3, 3)
		_ = a.Build([]int{0, 1, 2}, []int{1, 2, 0}, []float64{1, 2, 3}, NoAccum[float64]())
		out, _ := NewMatrix[float64](3, 3)

		withFaults(t, 1, faults.Rule{Site: "MxM", Kind: faults.KernelErr, Times: 1})
		// Accumulating MxM so elision cannot prune it.
		if err := MxM(out, NoMask, plusF64(), s, a, a, nil); err != nil {
			t.Fatalf("MxM enqueue: %v", err)
		}
		if err := Wait(); InfoOf(err) != PanicInfo {
			t.Fatalf("Wait: got %v want PanicInfo", err)
		}
		spans := c.byOp("MxM")
		if len(spans) != 1 {
			t.Fatalf("MxM spans: got %d want 1", len(spans))
		}
		if sp := spans[0]; sp.Outcome != obs.OutcomeError || !sp.RolledBack || sp.Err == nil {
			t.Errorf("failed op span: outcome=%v rolledBack=%v err=%v", sp.Outcome, sp.RolledBack, sp.Err)
		}
		faults.Disable()

		// Two back-to-back full overwrites of a fresh output: the first is a
		// dead store the elision pass prunes.
		b, _ := NewMatrix[float64](3, 3)
		if err := Transpose(b, NoMask, NoAccum[float64](), a, nil); err != nil {
			t.Fatalf("Transpose 1: %v", err)
		}
		if err := Transpose(b, NoMask, NoAccum[float64](), a, nil); err != nil {
			t.Fatalf("Transpose 2: %v", err)
		}
		if err := Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		var elided, committed int
		for _, sp := range c.byOp("Transpose") {
			switch sp.Outcome {
			case obs.OutcomeElided:
				elided++
			case obs.OutcomeOK:
				committed++
			}
		}
		if elided != 1 || committed != 1 {
			t.Errorf("Transpose spans: elided=%d committed=%d want 1/1", elided, committed)
		}
	})
}

// TestObs_MetricsTracerAggregates: registering the built-in MetricsTracer
// turns the span stream into registry aggregates — per-op counters and
// latency histograms — visible in a snapshot.
func TestObs_MetricsTracerAggregates(t *testing.T) {
	withMode(t, NonBlocking, func() {
		prev := obs.SetTracer(obs.NewMetricsTracer())
		t.Cleanup(func() { obs.SetTracer(prev) })
		u, _ := NewVector[float64](8)
		for i := 0; i < 8; i++ {
			if err := u.SetElement(float64(i+1), i); err != nil {
				t.Fatalf("SetElement: %v", err)
			}
		}
		if err := Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if got := obs.OpsExecuted.With("Vector.SetElement").Value(); got != 8 {
			t.Errorf("OpsExecuted[Vector.SetElement]: got %d want 8", got)
		}
		if got := obs.SpanOutcomes.With("ok").Value(); got < 8 {
			t.Errorf("SpanOutcomes[ok]: got %d want >= 8", got)
		}
		snap := obs.Snapshot()
		if _, ok := snap["graphblas_op_seconds"]; !ok {
			t.Errorf("snapshot missing op duration histogram; keys=%d", len(snap))
		}
	})
}

// TestObs_DirectionIsVisible: which way the engine ran a scatter product is
// the one decision a caller cannot read off the descriptor, so it has to
// show in the engine's own output — the span's layout note (csr-pull beside
// csr), graphblas_mxv_direction_total by direction, and the transpose build
// a pull may cost in graphblas_transpose_builds_total, which is not a layout
// conversion and stays out of graphblas_format_conversions_total. With no
// tracer the accounting must not allocate.
func TestObs_DirectionIsVisible(t *testing.T) {
	withMode(t, NonBlocking, func() {
		c := withTracer(t)
		rng := rand.New(rand.NewSource(71))
		s := plusTimesF64(t)
		a, _ := newTestMatrix(t, rng, 80, 80, 0.5)
		dense, _ := randVecModel(t, rng, 80, 1)
		thin, _ := randVecModel(t, rng, 80, 0.1)
		if err := Wait(); err != nil {
			t.Fatal(err)
		}
		conversions := obs.FormatConversions.Value()
		for _, u := range []*Vector[float64]{dense, thin} {
			w, _ := NewVector[float64](80)
			if err := VxM(w, NoMaskV, NoAccum[float64](), s, u, a, nil); err != nil {
				t.Fatal(err)
			}
			if err := Wait(); err != nil {
				t.Fatal(err)
			}
		}
		spans := c.byOp("VxM")
		if len(spans) != 2 || spans[0].Layout != "csr-pull" || spans[1].Layout != "csr" {
			t.Fatalf("VxM spans: %d, want layouts csr-pull then csr: %+v", len(spans), spans)
		}
		snap := obs.Snapshot()
		dir, _ := snap["graphblas_mxv_direction_total"].(map[string]int64)
		if dir["pull"] != 1 || dir["push"] != 1 {
			t.Errorf("graphblas_mxv_direction_total = %v, want one pull and one push", snap["graphblas_mxv_direction_total"])
		}
		if got := snap["graphblas_transpose_builds_total"]; got != int64(1) {
			t.Errorf("graphblas_transpose_builds_total = %v, want 1", got)
		}
		if got := obs.FormatConversions.Value(); got != conversions {
			t.Errorf("the transpose build counted as %d format conversions", got-conversions)
		}
		var text strings.Builder
		if err := obs.Default.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			`graphblas_mxv_direction_total{dir="pull"} 1`,
			`graphblas_mxv_direction_total{dir="push"} 1`,
			"graphblas_transpose_builds_total 1",
		} {
			if !strings.Contains(text.String(), line) {
				t.Errorf("/metrics text lacks %q", line)
			}
		}

		obs.SetTracer(nil)
		off := obs.Begin("VxM") // nil while no tracer is set
		if allocs := testing.AllocsPerRun(1000, func() {
			mxvPull.Add(1)
			off.NoteLayout("csr-pull")
			transposeBuilds.Add(1)
			off.NoteRetry()
			mxvPush.Add(1)
			off.NoteLayout("csr")
		}); allocs != 0 {
			t.Errorf("direction accounting allocates %.1f per call with tracing off, want 0", allocs)
		}
	})
}

// TestObs_FullVectorPathIsVisible: a vector operation whose kernel read a
// full operand as an array says so — layout "full" on its span, none when
// both operands are partial — and the vector kernels report their time
// under vec.union, vec.intersect and vec.assign, so kernel_time_frac sees
// them. With no tracer neither the note nor the kernel timing allocates.
func TestObs_FullVectorPathIsVisible(t *testing.T) {
	withMode(t, NonBlocking, func() {
		c := withTracer(t)
		rng := rand.New(rand.NewSource(73))
		full, _ := randVecModel(t, rng, 32, 1)
		part, _ := randVecModel(t, rng, 32, 0.5)
		part2, _ := randVecModel(t, rng, 32, 0.5)
		before := map[string]int64{}
		kernels := []string{"vec.union", "vec.intersect", "vec.assign"}
		for _, k := range kernels {
			before[k] = obs.KernelSeconds.With(k).Count()
		}
		// Each call writes a fresh output and is flushed on its own, so
		// nothing is elided.
		for _, call := range []func(w *Vector[float64]) error{
			func(w *Vector[float64]) error {
				return EWiseAddV(w, NoMaskV, NoAccum[float64](), plusF64(), full, part, nil)
			},
			func(w *Vector[float64]) error {
				return EWiseAddV(w, NoMaskV, NoAccum[float64](), plusF64(), part, part2, nil)
			},
			func(w *Vector[float64]) error {
				return EWiseMultV(w, NoMaskV, NoAccum[float64](), plusF64(), part, full, nil)
			},
			func(w *Vector[float64]) error { return AssignVector(w, NoMaskV, plusF64(), full, All, nil) },
			func(w *Vector[float64]) error {
				return AssignVectorScalar(w, NoMaskV, NoAccum[float64](), 1, All, nil)
			},
			func(w *Vector[float64]) error {
				return AssignVectorScalar(w, NoMaskV, NoAccum[float64](), 1, []int{3, 1}, nil)
			},
		} {
			w, _ := NewVector[float64](32)
			if err := call(w); err != nil {
				t.Fatal(err)
			}
			if err := Wait(); err != nil {
				t.Fatal(err)
			}
		}
		layouts := func(op string) []string {
			var out []string
			for _, sp := range c.byOp(op) {
				out = append(out, sp.Layout)
			}
			return out
		}
		for op, want := range map[string][]string{
			"EWiseAddV":          {"full", ""},
			"EWiseMultV":         {"full"},
			"AssignVector":       {"full"},
			"AssignVectorScalar": {"full", ""},
		} {
			if got := layouts(op); !reflect.DeepEqual(got, want) {
				t.Errorf("%s span layouts = %q, want %q", op, got, want)
			}
		}
		for _, k := range kernels {
			if obs.KernelSeconds.With(k).Count() == before[k] {
				t.Errorf("no %s kernel time recorded", k)
			}
		}

		obs.SetTracer(nil)
		off := obs.Begin("EWiseAddV") // nil while no tracer is set
		if allocs := testing.AllocsPerRun(1000, func() {
			noteFull(off, true)
			obs.KernelStart("vec.union")(32)
		}); allocs != 0 {
			t.Errorf("full-path accounting allocates %.1f per call with tracing off, want 0", allocs)
		}
	})
}

// BenchmarkObsOverheadOff measures the per-operation engine cost with no
// tracer registered — the configuration the <2% overhead budget is measured
// against (pair with BenchmarkObsOverheadOn).
func BenchmarkObsOverheadOff(b *testing.B) { benchObsOverhead(b, false) }

// BenchmarkObsOverheadOn is the same workload with the MetricsTracer
// registered, for an informational span-path cost comparison.
func BenchmarkObsOverheadOn(b *testing.B) { benchObsOverhead(b, true) }

func benchObsOverhead(b *testing.B, traced bool) {
	ResetForTesting()
	if err := Init(NonBlocking); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ResetForTesting()
		_ = Init(Blocking)
	}()
	if traced {
		prev := obs.SetTracer(obs.NewMetricsTracer())
		defer obs.SetTracer(prev)
	} else {
		prev := obs.SetTracer(nil)
		defer obs.SetTracer(prev)
	}
	const n = 64
	add, _ := NewMonoid(plusF64(), 0)
	mul := BinaryOp[float64, float64, float64]{Name: "times", F: func(x, y float64) float64 { return x * y }}
	s, _ := NewSemiring(add, mul)
	a, _ := NewMatrix[float64](n, n)
	is := make([]int, n)
	js := make([]int, n)
	vs := make([]float64, n)
	for i := 0; i < n; i++ {
		is[i], js[i], vs[i] = i, (i+1)%n, float64(i+1)
	}
	_ = a.Build(is, js, vs, NoAccum[float64]())
	u, _ := NewVector[float64](n)
	_ = u.SetElement(1, 0)
	_ = Wait()
	w, _ := NewVector[float64](n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MxV(w, NoMaskV, NoAccum[float64](), s, a, u, nil); err != nil {
			b.Fatal(err)
		}
		if err := Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
