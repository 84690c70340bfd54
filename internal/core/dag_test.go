package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"graphblas/internal/parallel"
)

// withDag runs f under a fresh nonblocking context with the DAG scheduler
// engaged for real: the worker bound is raised to 4 for the duration.
func withDag(t *testing.T, f func()) {
	t.Helper()
	parallel.SetMaxWorkersForTest(t, 4)
	withMode(t, NonBlocking, f)
}

// oneCell builds a committed 1×1 matrix holding v, so an ApplyM over it
// calls its unary operator exactly once — the unit of controllable work the
// scheduler tests are built from.
func oneCell(t *testing.T, v float64) *Matrix[float64] {
	t.Helper()
	m, err := NewMatrix[float64](1, 1)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if err := m.Build([]int{0}, []int{0}, []float64{v}, NoAccum[float64]()); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// cellValue reads the committed (0,0) entry of a 1×1 matrix.
func cellValue(t *testing.T, m *Matrix[float64]) float64 {
	t.Helper()
	d := committedTuples(m)
	return d[key{0, 0}]
}

// TestDagIndependentChainsOverlap: queued operations on disjoint objects
// must really execute concurrently — the flush's realized width reaches at
// least two — and still produce the right values. (Observable on one CPU:
// a sleeping operation yields the processor to the other workers.)
func TestDagIndependentChainsOverlap(t *testing.T) {
	withDag(t, func() {
		const chains = 4
		var src, dst [chains]*Matrix[float64]
		for k := 0; k < chains; k++ {
			src[k] = oneCell(t, float64(k+1))
			dst[k], _ = NewMatrix[float64](1, 1)
		}
		if err := Wait(); err != nil {
			t.Fatalf("setup Wait: %v", err)
		}
		before := StatsSnapshot()
		slowDouble := UnaryOp[float64, float64]{Name: "slowDouble", F: func(x float64) float64 {
			time.Sleep(20 * time.Millisecond)
			return 2 * x
		}}
		for k := 0; k < chains; k++ {
			if err := ApplyM(dst[k], NoMask, NoAccum[float64](), slowDouble, src[k], nil); err != nil {
				t.Fatalf("ApplyM enqueue %d: %v", k, err)
			}
		}
		if err := Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		for k := 0; k < chains; k++ {
			if got, want := cellValue(t, dst[k]), 2*float64(k+1); got != want {
				t.Errorf("chain %d result = %v, want %v", k, got, want)
			}
		}
		after := StatsSnapshot()
		if after.ParallelFlushes != before.ParallelFlushes+1 {
			t.Errorf("ParallelFlushes = %d, want %d", after.ParallelFlushes, before.ParallelFlushes+1)
		}
		if nodes := after.DagNodes - before.DagNodes; nodes != chains {
			t.Errorf("DagNodes grew by %d, want %d", nodes, chains)
		}
		if edges := after.DagEdges - before.DagEdges; edges != 0 {
			t.Errorf("DagEdges grew by %d for independent chains, want 0", edges)
		}
		if after.MaxWidth < 2 {
			t.Errorf("MaxWidth = %d: independent chains never overlapped", after.MaxWidth)
		}
	})
}

// TestDagFirstErrorProgramOrder: when several independent DAG branches fail
// in one flush, Wait must return the error of the *lowest program position*,
// and SequenceErrors must list every failure in ascending position — even
// though the branches are deliberately timed so the lowest-position failure
// happens *last* in wall-clock order.
func TestDagFirstErrorProgramOrder(t *testing.T) {
	cases := []struct {
		name     string
		chains   int
		fail     []int // branch indices (= program positions) that panic
		firstPos int
	}{
		{name: "single failing branch", chains: 4, fail: []int{2}, firstPos: 2},
		{name: "first and last fail", chains: 4, fail: []int{0, 3}, firstPos: 0},
		{name: "all but one fail", chains: 4, fail: []int{1, 2, 3}, firstPos: 1},
		{name: "every branch fails", chains: 5, fail: []int{0, 1, 2, 3, 4}, firstPos: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withDag(t, func() {
				failing := map[int]bool{}
				for _, k := range tc.fail {
					failing[k] = true
				}
				src := make([]*Matrix[float64], tc.chains)
				dst := make([]*Matrix[float64], tc.chains)
				for k := range src {
					src[k] = oneCell(t, float64(k+1))
					dst[k], _ = NewMatrix[float64](1, 1)
				}
				if err := Wait(); err != nil {
					t.Fatalf("setup Wait: %v", err)
				}
				for k := 0; k < tc.chains; k++ {
					k := k
					op := UnaryOp[float64, float64]{Name: "branch", F: func(x float64) float64 {
						if failing[k] {
							// Earlier positions panic later in wall-clock
							// time, so a first-error-by-arrival bug would
							// pick the wrong branch.
							time.Sleep(time.Duration(tc.chains-k) * 15 * time.Millisecond)
							panic(fmt.Sprintf("injected failure in branch %d", k))
						}
						return 2 * x
					}}
					if err := ApplyM(dst[k], NoMask, NoAccum[float64](), op, src[k], nil); err != nil {
						t.Fatalf("ApplyM enqueue %d: %v", k, err)
					}
				}
				waitErr := Wait()
				if waitErr == nil {
					t.Fatal("Wait returned nil with failing branches")
				}
				if InfoOf(waitErr) != PanicInfo {
					t.Fatalf("Wait error class = %v, want PanicInfo", InfoOf(waitErr))
				}
				log := SequenceErrors()
				if len(log) != len(tc.fail) {
					t.Fatalf("SequenceErrors has %d entries, want %d: %v", len(log), len(tc.fail), log)
				}
				for i, e := range log {
					if e.Pos != tc.fail[i] {
						t.Fatalf("SequenceErrors[%d].Pos = %d, want %d (log %v)", i, e.Pos, tc.fail[i], log)
					}
					if i > 0 && log[i-1].Pos >= e.Pos {
						t.Fatalf("SequenceErrors not ascending: %v", log)
					}
				}
				if log[0].Pos != tc.firstPos {
					t.Fatalf("first logged error at pos %d, want %d", log[0].Pos, tc.firstPos)
				}
				if waitErr.Error() != log[0].Err.Error() {
					t.Fatalf("Wait error %q is not the program-order-first log entry %q", waitErr, log[0].Err)
				}
				// Healthy branches completed despite their siblings failing.
				for k := 0; k < tc.chains; k++ {
					if failing[k] {
						continue
					}
					if got, want := cellValue(t, dst[k]), 2*float64(k+1); got != want {
						t.Errorf("healthy branch %d result = %v, want %v", k, got, want)
					}
				}
			})
		})
	}
}

// TestDagCancellationScopesToDependents: a failed operation cancels only its
// downstream dependents — they short-circuit with InvalidObject — while an
// independent chain in the same flush runs to completion.
func TestDagCancellationScopesToDependents(t *testing.T) {
	assertQuiescent(t)
	withDag(t, func() {
		a0 := oneCell(t, 3)
		a1, _ := NewMatrix[float64](1, 1)
		a2, _ := NewMatrix[float64](1, 1)
		b0 := oneCell(t, 5)
		b1, _ := NewMatrix[float64](1, 1)
		b2, _ := NewMatrix[float64](1, 1)
		if err := Wait(); err != nil {
			t.Fatalf("setup Wait: %v", err)
		}
		boom := UnaryOp[float64, float64]{Name: "boom", F: func(x float64) float64 { panic("chain A dies") }}
		double := UnaryOp[float64, float64]{Name: "double", F: func(x float64) float64 { return 2 * x }}
		_ = ApplyM(a1, NoMask, NoAccum[float64](), boom, a0, nil)   // pos 0: fails
		_ = ApplyM(a2, NoMask, NoAccum[float64](), double, a1, nil) // pos 1: depends on pos 0
		_ = ApplyM(b1, NoMask, NoAccum[float64](), double, b0, nil) // pos 2: independent
		_ = ApplyM(b2, NoMask, NoAccum[float64](), double, b1, nil) // pos 3: depends on pos 2
		waitErr := Wait()
		if InfoOf(waitErr) != PanicInfo {
			t.Fatalf("Wait error = %v, want the chain-A panic", waitErr)
		}
		log := SequenceErrors()
		if len(log) != 2 {
			t.Fatalf("SequenceErrors = %v, want the failure and its dependent", log)
		}
		if log[0].Pos != 0 || InfoOf(log[0].Err) != PanicInfo {
			t.Fatalf("log[0] = %+v, want pos 0 PanicInfo", log[0])
		}
		if log[1].Pos != 1 || InfoOf(log[1].Err) != InvalidObject {
			t.Fatalf("log[1] = %+v, want pos 1 InvalidObject (cancelled dependent)", log[1])
		}
		if a1.err == nil || a2.err == nil {
			t.Error("chain A objects should be invalid")
		}
		if b1.err != nil || b2.err != nil {
			t.Error("independent chain B was cancelled")
		}
		if got := cellValue(t, b2); got != 20 {
			t.Errorf("chain B result = %v, want 20 (5 doubled twice)", got)
		}
	})
}

// TestDagSequentialEquivalence: random fault-free programs over a shared
// object pool must fingerprint identically under the sequential drain and
// the DAG-parallel flush (same contents, same empty error log).
func TestDagSequentialEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		n := 5 + rng.Intn(8)
		prog := make([]faultOp, n)
		for i := range prog {
			prog[i] = faultOp{kind: rng.Intn(4), dst: rng.Intn(diffPool), s1: rng.Intn(diffPool), s2: rng.Intn(diffPool)}
		}
		seq := runFaultProgram(t, NonBlocking, SchedSequential, prog, 1, nil)
		dag := runFaultProgram(t, NonBlocking, SchedDag, prog, 1, nil)
		if seq != dag {
			t.Fatalf("trial %d diverged (prog %v)\n-- sequential --\n%s-- dag --\n%s", trial, prog, seq, dag)
		}
	}
}

// TestDagDependentChainStaysOrdered: a fully dependent chain builds a
// linear DAG (n-1 edges) and executes with width 1, producing the same
// value a sequential drain would.
func TestDagDependentChainStaysOrdered(t *testing.T) {
	withDag(t, func() {
		const hops = 6
		m := make([]*Matrix[float64], hops+1)
		m[0] = oneCell(t, 1)
		for k := 1; k <= hops; k++ {
			m[k], _ = NewMatrix[float64](1, 1)
		}
		if err := Wait(); err != nil {
			t.Fatalf("setup Wait: %v", err)
		}
		before := StatsSnapshot()
		double := UnaryOp[float64, float64]{Name: "double", F: func(x float64) float64 { return 2 * x }}
		for k := 0; k < hops; k++ {
			if err := ApplyM(m[k+1], NoMask, NoAccum[float64](), double, m[k], nil); err != nil {
				t.Fatalf("ApplyM %d: %v", k, err)
			}
		}
		if err := Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if got := cellValue(t, m[hops]); got != 64 {
			t.Errorf("chain result = %v, want 64", got)
		}
		after := StatsSnapshot()
		if nodes := after.DagNodes - before.DagNodes; nodes != hops {
			t.Errorf("DagNodes grew by %d, want %d", nodes, hops)
		}
		if edges := after.DagEdges - before.DagEdges; edges != hops-1 {
			t.Errorf("DagEdges grew by %d, want %d (linear chain)", edges, hops-1)
		}
	})
}

// TestSchedulerSelection covers the scheduler API and the conditions under
// which the DAG path engages: never with a single queued op, never under
// SchedSequential, never with one worker.
func TestSchedulerSelection(t *testing.T) {
	t.Run("default is dag", func(t *testing.T) {
		withMode(t, NonBlocking, func() {
			if s := CurrentScheduler(); s != SchedDag {
				t.Fatalf("CurrentScheduler() = %v after Init, want dag", s)
			}
		})
	})
	t.Run("names", func(t *testing.T) {
		if s := SchedDag.String(); s != "dag" {
			t.Fatalf("SchedDag.String() = %q", s)
		}
		if s := SchedSequential.String(); s != "sequential" {
			t.Fatalf("SchedSequential.String() = %q", s)
		}
	})
	t.Run("toggle returns previous", func(t *testing.T) {
		withMode(t, NonBlocking, func() {
			if prev := SetScheduler(SchedSequential); prev != SchedDag {
				t.Fatalf("SetScheduler returned %v, want dag", prev)
			}
			if prev := SetScheduler(SchedDag); prev != SchedSequential {
				t.Fatalf("SetScheduler returned %v, want sequential", prev)
			}
		})
	})
	t.Run("single op flushes sequentially", func(t *testing.T) {
		withDag(t, func() {
			src := oneCell(t, 2)
			dst, _ := NewMatrix[float64](1, 1)
			if err := Wait(); err != nil {
				t.Fatalf("setup Wait: %v", err)
			}
			before := StatsSnapshot()
			double := UnaryOp[float64, float64]{Name: "double", F: func(x float64) float64 { return 2 * x }}
			_ = ApplyM(dst, NoMask, NoAccum[float64](), double, src, nil)
			if err := Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if d := StatsSnapshot().ParallelFlushes - before.ParallelFlushes; d != 0 {
				t.Errorf("single-op flush took the DAG path (ParallelFlushes +%d)", d)
			}
		})
	})
	t.Run("sequential scheduler never parallelizes", func(t *testing.T) {
		withDag(t, func() {
			SetScheduler(SchedSequential)
			var dst [3]*Matrix[float64]
			var src [3]*Matrix[float64]
			for k := range src {
				src[k] = oneCell(t, float64(k+1))
				dst[k], _ = NewMatrix[float64](1, 1)
			}
			if err := Wait(); err != nil {
				t.Fatalf("setup Wait: %v", err)
			}
			before := StatsSnapshot()
			double := UnaryOp[float64, float64]{Name: "double", F: func(x float64) float64 { return 2 * x }}
			for k := range src {
				_ = ApplyM(dst[k], NoMask, NoAccum[float64](), double, src[k], nil)
			}
			if err := Wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			after := StatsSnapshot()
			if after.ParallelFlushes != before.ParallelFlushes || after.DagNodes != before.DagNodes {
				t.Error("SchedSequential still took the DAG path")
			}
			for k := range src {
				if got, want := cellValue(t, dst[k]), 2*float64(k+1); got != want {
					t.Errorf("result %d = %v, want %v", k, got, want)
				}
			}
		})
	})
}

// TestDagElisionStillCounts: dead stores are pruned before DAG construction,
// so the scheduler sees only live operations.
func TestDagElisionStillCounts(t *testing.T) {
	withDag(t, func() {
		src := oneCell(t, 3)
		other := oneCell(t, 4)
		dst, _ := NewMatrix[float64](1, 1)
		if err := Wait(); err != nil {
			t.Fatalf("setup Wait: %v", err)
		}
		before := StatsSnapshot()
		double := UnaryOp[float64, float64]{Name: "double", F: func(x float64) float64 { return 2 * x }}
		triple := UnaryOp[float64, float64]{Name: "triple", F: func(x float64) float64 { return 3 * x }}
		// dst is written twice with no intervening read: the first write is a
		// dead store and must be elided, leaving a 2-node DAG (two live ops on
		// distinct outputs... the second write and an independent op).
		_ = ApplyM(dst, NoMask, NoAccum[float64](), double, src, nil) // dead
		_ = ApplyM(dst, NoMask, NoAccum[float64](), triple, src, nil)
		od, _ := NewMatrix[float64](1, 1)
		_ = ApplyM(od, NoMask, NoAccum[float64](), double, other, nil)
		if err := Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		after := StatsSnapshot()
		if elided := after.OpsElided - before.OpsElided; elided != 1 {
			t.Errorf("OpsElided grew by %d, want 1", elided)
		}
		if nodes := after.DagNodes - before.DagNodes; nodes != 2 {
			t.Errorf("DagNodes grew by %d, want 2 (dead store pruned pre-DAG)", nodes)
		}
		if got := cellValue(t, dst); got != 9 {
			t.Errorf("dst = %v, want 9 (only the live triple ran)", got)
		}
		if got := cellValue(t, od); got != 8 {
			t.Errorf("independent op result = %v, want 8", got)
		}
	})
}
