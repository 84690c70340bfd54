package core

import (
	stdctx "context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"graphblas/internal/faults"
	"graphblas/internal/parallel"
)

// The nonblocking engine reuses its queue's records, the DAG's footprints,
// the graph and its run state and the per-op outcomes from flush to flush.
// TestFlushReuseMatchesBlocking runs thousands of seeded flushes through one
// context — flushes canceled by an expired deadline, operations failed by a
// fault plan, a user operator that panics, operations dropped by dead-store
// elision — and holds every flush's outcome to the same program run in
// blocking mode, where nothing is reused: the objects' contents and
// validity, the sequence error log in order, and the GrB_error string. After
// every flush it also checks that the context holds nothing of the flush in
// its buffers.
//
// The program is shaped so that both modes must agree exactly:
//   - The e vectors are written only by ApplyV overwrites from valid inputs:
//     these are the operations elision drops, and none of them can fail, so
//     a dropped one would have succeeded in blocking mode too.
//   - The f vectors are written only by accumulating operations, which read
//     their output and so are never elided: the fault plan's sites
//     (EWiseAddV, MxV) and the panicking ApplyV draw in both modes alike.
//   - A canceled flush abandons every operation it holds; the program then
//     accepts the rolled-back outputs (Revalidate) and enqueues the same
//     operations again, which blocking mode runs once.
const (
	reuseFlushes = 2000
	reuseN       = 24 // vector size
	reuseE       = 4  // vectors written by overwrites
	reuseF       = 4  // vectors written by accumulations
)

// reuseOp is one operation of the program: kind 0 writes e[dst] =
// mod3(x); 1 f[dst] ⊕= x + y; 2 f[dst] ⊕= A·x; 3 f[dst] ⊕= boom(x). Inputs
// index e then f (src < reuseE is an e vector).
type reuseOp struct{ kind, dst, x, y int }

// reuseFlush is one flush of the program; a canceled one is waited on with
// an expired deadline first.
type reuseFlush struct {
	ops      []reuseOp
	canceled bool
}

func reuseProgram(seed int64) []reuseFlush {
	rng := rand.New(rand.NewSource(seed))
	prog := make([]reuseFlush, reuseFlushes)
	for f := range prog {
		n := 1 + rng.Intn(8)
		fl := reuseFlush{canceled: rng.Intn(8) == 0}
		for k := 0; k < n; k++ {
			op := reuseOp{kind: rng.Intn(4), y: rng.Intn(reuseE + reuseF)}
			if op.kind == 0 {
				op.dst, op.x = rng.Intn(reuseE), rng.Intn(reuseE)
			} else {
				op.dst, op.x = rng.Intn(reuseF), rng.Intn(reuseE+reuseF)
			}
			fl.ops = append(fl.ops, op)
		}
		prog[f] = fl
	}
	return prog
}

// normalizeErr is an error's text up to its first line break: a panic's
// message ends in the stack of the goroutine that ran the operation, which
// differs between the modes by construction.
func normalizeErr(err error) string {
	if err == nil {
		return ""
	}
	s, _, _ := strings.Cut(err.Error(), "\n")
	return s
}

// runReuseProgram runs prog in mode and returns one fingerprint per flush,
// and the operations elision dropped.
func runReuseProgram(t *testing.T, mode Mode, prog []reuseFlush, seed int64) (out []string, elided int64) {
	t.Helper()
	withMode(t, mode, func() {
		defer faults.Disable()
		mod3 := UnaryOp[float64, float64]{Name: "mod3", F: func(x float64) float64 { return math.Mod(3*x+1, 17) }}
		boom := UnaryOp[float64, float64]{Name: "boom", F: func(x float64) float64 {
			if x == 5 {
				panic("boom at 5")
			}
			return x
		}}
		mix := BinaryOp[float64, float64, float64]{Name: "mix", F: func(x, y float64) float64 { return math.Mod(x+y, 17) }}
		sem := plusTimesF64(t)

		rng := rand.New(rand.NewSource(11))
		a, err := NewMatrix[float64](reuseN, reuseN)
		if err != nil {
			t.Fatal(err)
		}
		var rows, cols []int
		var vals []float64
		for i := 0; i < reuseN; i++ {
			for j := 0; j < reuseN; j++ {
				if rng.Intn(5) == 0 {
					rows, cols, vals = append(rows, i), append(cols, j), append(vals, float64(1+rng.Intn(3)))
				}
			}
		}
		if err := a.Build(rows, cols, vals, NoAccum[float64]()); err != nil {
			t.Fatal(err)
		}
		vecs := make([]*Vector[float64], reuseE+reuseF)
		for k := range vecs {
			if vecs[k], err = NewVector[float64](reuseN); err != nil {
				t.Fatal(err)
			}
			var idx []int
			var val []float64
			for i := 0; i < reuseN; i++ {
				if rng.Intn(3) > 0 {
					idx, val = append(idx, i), append(val, float64(rng.Intn(17)))
				}
			}
			if err := vecs[k].Build(idx, val, NoAccum[float64]()); err != nil {
				t.Fatal(err)
			}
		}
		e, f := vecs[:reuseE], vecs[reuseE:]
		if err := Wait(); err != nil {
			t.Fatal(err)
		}
		faults.Configure(seed,
			faults.Rule{Site: "EWiseAddV", Kind: faults.OOM, Prob: 0.2},
			faults.Rule{Site: "MxV", Kind: faults.PanicFault, Every: 7},
		)

		enqueue := func(ops []reuseOp) {
			for _, op := range ops {
				switch op.kind {
				case 0:
					_ = ApplyV(e[op.dst], NoMaskV, NoAccum[float64](), mod3, e[op.x], nil)
				case 1:
					_ = EWiseAddV(f[op.dst], NoMaskV, mix, mix, vecs[op.x], vecs[op.y], nil)
				case 2:
					_ = MxV(f[op.dst], NoMaskV, mix, sem, a, vecs[op.x], nil)
				case 3:
					_ = ApplyV(f[op.dst], NoMaskV, mix, boom, vecs[op.x], nil)
				}
			}
		}
		revalidate := func(vs []*Vector[float64]) {
			for _, v := range vs {
				if err := v.Revalidate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		expired, cancel := stdctx.WithDeadline(stdctx.Background(), time.Now().Add(-time.Second))
		defer cancel()

		for n, fl := range prog {
			if n%5 != 0 || fl.canceled { // every fifth flush inherits invalid f vectors
				revalidate(f)
			}
			if fl.canceled && mode == NonBlocking {
				enqueue(fl.ops)
				if err := WaitContext(expired); InfoOf(err) != Canceled {
					t.Fatalf("flush %d: WaitContext past its deadline returned %v", n, err)
				}
				last := -1
				for _, se := range SequenceErrors() {
					if InfoOf(se.Err) != Canceled || se.Pos <= last || se.Op != [...]string{"ApplyV", "EWiseAddV", "MxV", "ApplyV"}[fl.ops[se.Pos].kind] {
						t.Fatalf("flush %d: canceled flush logged %v", n, se)
					}
					last = se.Pos
				}
				checkFlushBuffersEmpty(t, n)
				revalidate(vecs)
			}
			enqueue(fl.ops)
			waitErr := Wait()
			checkFlushBuffersEmpty(t, n)

			var sb strings.Builder
			log := SequenceErrors()
			for _, se := range log {
				fmt.Fprintf(&sb, "err pos=%d op=%s %s\n", se.Pos, se.Op, normalizeErr(se.Err))
			}
			if mode == NonBlocking {
				// GrB_error reports the sequence's first error (Section V):
				// blocking mode's log head, printed above.
				if len(log) > 0 && (normalizeErr(waitErr) != normalizeErr(log[0].Err) || LastError() != log[0].Err.Error()) {
					t.Fatalf("flush %d: Wait returned %q and GrB_error is %q, log head %q", n, normalizeErr(waitErr), LastError(), log[0].Err)
				}
				if len(log) == 0 && (waitErr != nil || LastError() != "") {
					t.Fatalf("flush %d: clean flush returned %v, GrB_error %q", n, waitErr, LastError())
				}
			}
			for k, v := range vecs {
				idx, val := v.vdat().Tuples()
				fmt.Fprintf(&sb, "v%d valid=%v %v %v\n", k, v.err == nil, idx, val)
			}
			out = append(out, sb.String())
		}
		elided = StatsSnapshot().OpsElided
	})
	return out, elided
}

// checkFlushBuffersEmpty fails unless every buffer the context reuses holds
// nothing of the flush that used it last.
func checkFlushBuffersEmpty(t *testing.T, flush int) {
	t.Helper()
	c := &global
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) != 0 || len(c.nodes) != 0 || len(c.results) != 0 {
		t.Fatalf("flush %d: buffers not emptied: %d queued, %d nodes, %d results", flush, len(c.queue), len(c.nodes), len(c.results))
	}
	for k, op := range c.queue[:cap(c.queue)] {
		if op.out != nil || op.reads != (readSet{}) || op.run != nil || op.name != "" || op.pos != 0 || op.span != nil || op.overwrites {
			t.Fatalf("flush %d: queue record %d kept %+v", flush, k, op)
		}
	}
	for k, op := range c.nodes[:cap(c.nodes)] {
		if op != nil {
			t.Fatalf("flush %d: node slot %d kept a record", flush, k)
		}
	}
	for k, err := range c.results[:cap(c.results)] {
		if err != nil {
			t.Fatalf("flush %d: outcome slot %d kept %v", flush, k, err)
		}
	}
	if d := c.dag; d.ctx != nil || d.nodes != nil || d.results != nil || d.gate != nil || d.serialBody {
		t.Fatalf("flush %d: the DAG executor kept its flush", flush)
	}
}

func TestFlushReuseMatchesBlocking(t *testing.T) {
	assertQuiescent(t)
	parallel.SetMaxWorkersForTest(t, 4) // the DAG engages at any GOMAXPROCS
	const seed = 46
	prog := reuseProgram(seed)
	want, _ := runReuseProgram(t, Blocking, prog, seed)
	got, elided := runReuseProgram(t, NonBlocking, prog, seed)
	failed, canceled := 0, 0
	for n := range prog {
		if got[n] != want[n] {
			t.Fatalf("flush %d (%+v) differs from blocking mode:\nnonblocking:\n%sblocking:\n%s", n, prog[n], got[n], want[n])
		}
		if strings.Contains(want[n], "err pos") {
			failed++
		}
		if prog[n].canceled {
			canceled++
		}
	}
	t.Logf("%d flushes: %d with errors, %d canceled, %d ops elided", len(prog), failed, canceled, elided)
	if failed == 0 || canceled == 0 || elided == 0 {
		t.Fatalf("the program reached too little: %d flushes with errors, %d canceled, %d ops elided", failed, canceled, elided)
	}
}
