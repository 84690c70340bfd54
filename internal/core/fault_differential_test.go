package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"graphblas/internal/faults"
	"graphblas/internal/parallel"
)

// The differential sweep (and the fuzz target below) runs the same program
// under the same fault schedule in blocking and nonblocking mode and demands
// identical observable outcomes: per-object final contents (or invalidity
// class) and the sequence error log. This is the executable statement of
// Section IV's equivalence — deferral may reorder *when* work happens, never
// *what* the surviving objects hold — extended to failing executions.
//
// Programs use only op-level fault sites (method names). Kernel-level sites
// are mode-dependent by design: the nonblocking engine's hint propagation
// legitimately picks different storage kernels than blocking mode, so a
// kernel-site schedule would not be comparable across modes.

// faultOp is one step of a mode-independent program over a pool of square
// matrices: dst = op(s1 [, s2]).
type faultOp struct {
	kind int // 0 MxM, 1 Transpose, 2 EWiseAddM, 3 ApplyM
	dst  int
	s1   int
	s2   int
}

var faultOpNames = [4]string{"MxM", "Transpose", "EWiseAddM", "ApplyM"}

const (
	diffPool = 4 // matrices in the object pool
	diffDim  = 5 // pool matrices are diffDim×diffDim
)

// normalizeFaultOp keeps programs inside the API's happy path so the only
// failures are injected ones: no aliasing of output and input.
func normalizeFaultOp(op faultOp) faultOp {
	op.kind %= len(faultOpNames)
	op.dst %= diffPool
	op.s1 %= diffPool
	op.s2 %= diffPool
	if op.s1 == op.dst {
		op.s1 = (op.s1 + 1) % diffPool
	}
	if op.s2 == op.dst {
		op.s2 = (op.s2 + 1) % diffPool
	}
	return op
}

// runFaultProgram executes prog in the given mode and flush scheduler under
// the fault plan and returns a printable fingerprint of every cross-mode-
// comparable outcome. Values are small integers, so all float64 arithmetic
// is exact and results do not depend on which storage kernel performed them.
// With sched == SchedDag the worker bound is raised so the DAG path really
// engages (and really runs operations concurrently).
func runFaultProgram(t *testing.T, mode Mode, sched Scheduler, prog []faultOp, seed int64, rules []faults.Rule) string {
	t.Helper()
	ResetForTesting()
	if err := Init(mode); err != nil {
		t.Fatalf("Init(%v): %v", mode, err)
	}
	SetScheduler(sched)
	if sched == SchedDag {
		prev := parallel.SetMaxWorkers(4)
		defer parallel.SetMaxWorkers(prev)
	}
	defer func() {
		faults.Disable()
		ResetForTesting()
		if err := Init(Blocking); err != nil {
			t.Fatalf("re-Init: %v", err)
		}
	}()
	SetElision(false) // keep per-site call counts aligned across modes

	// Identical pool in both modes, committed before the plan is armed.
	rng := rand.New(rand.NewSource(99))
	pool := make([]*Matrix[float64], diffPool)
	for i := range pool {
		pool[i], _ = newTestMatrix(t, rng, diffDim, diffDim, 0.4)
	}
	if err := Wait(); err != nil {
		t.Fatalf("pool Wait: %v", err)
	}

	s := plusTimesF64(t)
	scale := UnaryOp[float64, float64]{Name: "scale", F: func(x float64) float64 { return 2 * x }}
	faults.Configure(seed, rules...)

	for _, op := range prog {
		op = normalizeFaultOp(op)
		dst, a, b := pool[op.dst], pool[op.s1], pool[op.s2]
		switch op.kind {
		case 0:
			_ = MxM(dst, NoMask, NoAccum[float64](), s, a, b, nil)
		case 1:
			_ = Transpose(dst, NoMask, NoAccum[float64](), a, nil)
		case 2:
			_ = EWiseAddM(dst, NoMask, NoAccum[float64](), plusF64(), a, b, nil)
		case 3:
			_ = ApplyM(dst, NoMask, NoAccum[float64](), scale, a, nil)
		}
	}
	waitErr := Wait()
	log := SequenceErrors()

	// Wait's contract differs by mode — blocking reports per method, Wait
	// returns nil; nonblocking returns the sequence's first error — but the
	// log must agree with it.
	if mode == NonBlocking {
		if len(log) > 0 && InfoOf(waitErr) != InfoOf(log[0].Err) {
			t.Fatalf("Wait error %v disagrees with log head %v", waitErr, log[0])
		}
		if len(log) == 0 && waitErr != nil {
			t.Fatalf("Wait error %v with empty log", waitErr)
		}
	} else if waitErr != nil {
		t.Fatalf("blocking Wait returned %v", waitErr)
	}

	faults.Disable() // fingerprinting below must not inject
	var sb strings.Builder
	for _, e := range log {
		fmt.Fprintf(&sb, "err pos=%d op=%s class=%v\n", e.Pos, e.Op, InfoOf(e.Err))
	}
	for i, m := range pool {
		if m.err != nil {
			fmt.Fprintf(&sb, "obj%d invalid class=%v\n", i, InfoOf(m.err))
		} else {
			fmt.Fprintf(&sb, "obj%d valid\n", i)
		}
		// Committed contents compare even for invalid objects: rollback
		// guarantees they hold exactly the prior committed state, which is
		// itself mode-independent.
		d := committedTuples(m)
		keys := make([]key, 0, len(d))
		for k := range d {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(x, y int) bool {
			return keys[x].i < keys[y].i || (keys[x].i == keys[y].i && keys[x].j < keys[y].j)
		})
		for _, k := range keys {
			fmt.Fprintf(&sb, "  (%d,%d)=%v\n", k.i, k.j, d[k])
		}
	}
	return sb.String()
}

// TestFaults_DifferentialSweep: random programs under a mixed deterministic/
// probabilistic fault plan must leave both modes in identical states.
func TestFaults_DifferentialSweep(t *testing.T) {
	assertQuiescent(t)
	rules := []faults.Rule{
		{Site: "MxM", Kind: faults.OOM, Every: 2},
		{Site: "ApplyM", Kind: faults.KernelErr, After: 1},
		{Site: "EWiseAddM", Kind: faults.OOM, Prob: 0.5},
		{Site: "Transpose", Kind: faults.KernelErr, Times: 1},
	}
	rng := rand.New(rand.NewSource(2024))
	for sweep := 0; sweep < 8; sweep++ {
		n := 4 + rng.Intn(9)
		prog := make([]faultOp, n)
		for i := range prog {
			prog[i] = faultOp{kind: rng.Intn(4), dst: rng.Intn(diffPool), s1: rng.Intn(diffPool), s2: rng.Intn(diffPool)}
		}
		seed := rng.Int63()
		blk := runFaultProgram(t, Blocking, SchedSequential, prog, seed, rules)
		nbl := runFaultProgram(t, NonBlocking, SchedSequential, prog, seed, rules)
		dag := runFaultProgram(t, NonBlocking, SchedDag, prog, seed, rules)
		if blk != nbl {
			t.Fatalf("sweep %d diverged (prog %v)\n-- blocking --\n%s-- nonblocking --\n%s", sweep, prog, blk, nbl)
		}
		if blk != dag {
			t.Fatalf("sweep %d DAG diverged (prog %v)\n-- blocking --\n%s-- dag --\n%s", sweep, prog, blk, dag)
		}
		if !strings.Contains(blk, "err pos=") {
			t.Logf("sweep %d injected nothing", sweep)
		}
	}
}

// FuzzFaultSchedule derives a short program and fault plan from fuzz input
// and asserts the same cross-mode equivalence. `go test` runs the seed
// corpus; CI's fuzz-smoke job explores further with -fuzz.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 0, 1, 2, 3, 1, 2, 3, 0})
	f.Add([]byte{7, 3, 0, 0, 2, 1, 3, 2, 0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 247})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			t.Skip()
		}
		// Header: one fault rule + schedule seed.
		rule := faults.Rule{
			Site:  faultOpNames[int(data[0])%len(faultOpNames)],
			Kind:  []faults.Kind{faults.OOM, faults.KernelErr, faults.PanicFault}[int(data[1])%3],
			After: int(data[2]) % 3,
			Every: int(data[3]) % 3,
		}
		seed := int64(data[4])
		// Body: three bytes per op, at most 12 ops.
		var prog []faultOp
		for i := 5; i+2 < len(data) && len(prog) < 12; i += 3 {
			prog = append(prog, faultOp{
				kind: int(data[i]),
				dst:  int(data[i+1]),
				s1:   int(data[i+2]),
				s2:   int(data[i+1]) >> 4,
			})
		}
		if len(prog) == 0 {
			t.Skip()
		}
		blk := runFaultProgram(t, Blocking, SchedSequential, prog, seed, []faults.Rule{rule})
		nbl := runFaultProgram(t, NonBlocking, SchedSequential, prog, seed, []faults.Rule{rule})
		if blk != nbl {
			t.Fatalf("modes diverged (rule %+v, prog %v)\n-- blocking --\n%s-- nonblocking --\n%s", rule, prog, blk, nbl)
		}
	})
}

// FuzzDagSchedule is the DAG-scheduler variant of FuzzFaultSchedule: the
// same derived program and fault plan must leave blocking mode, the
// sequential nonblocking drain, and the DAG-parallel nonblocking flush in
// identical observable states — surviving-object contents, invalidity
// classes, and the sequence error log. This is the executable statement of
// the dataflow scheduler's contract: concurrency may reorder *when* work
// happens, never *what* the program observes.
func FuzzDagSchedule(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 0, 1, 2, 3, 1, 2, 3, 0})
	f.Add([]byte{7, 3, 0, 0, 2, 1, 3, 2, 0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{2, 2, 1, 0, 5, 0, 0, 1, 3, 2, 1, 1, 3, 0, 2})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 247})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			t.Skip()
		}
		rule := faults.Rule{
			Site:  faultOpNames[int(data[0])%len(faultOpNames)],
			Kind:  []faults.Kind{faults.OOM, faults.KernelErr, faults.PanicFault}[int(data[1])%3],
			After: int(data[2]) % 3,
			Every: int(data[3]) % 3,
		}
		seed := int64(data[4])
		var prog []faultOp
		for i := 5; i+2 < len(data) && len(prog) < 12; i += 3 {
			prog = append(prog, faultOp{
				kind: int(data[i]),
				dst:  int(data[i+1]),
				s1:   int(data[i+2]),
				s2:   int(data[i+1]) >> 4,
			})
		}
		if len(prog) == 0 {
			t.Skip()
		}
		blk := runFaultProgram(t, Blocking, SchedSequential, prog, seed, []faults.Rule{rule})
		seq := runFaultProgram(t, NonBlocking, SchedSequential, prog, seed, []faults.Rule{rule})
		dag := runFaultProgram(t, NonBlocking, SchedDag, prog, seed, []faults.Rule{rule})
		if blk != seq {
			t.Fatalf("blocking vs sequential diverged (rule %+v, prog %v)\n-- blocking --\n%s-- sequential --\n%s", rule, prog, blk, seq)
		}
		if blk != dag {
			t.Fatalf("blocking vs dag diverged (rule %+v, prog %v)\n-- blocking --\n%s-- dag --\n%s", rule, prog, blk, dag)
		}
	})
}
