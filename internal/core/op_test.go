package core

import (
	"fmt"
	"strings"
	"testing"

	"graphblas/internal/parallel"
)

// Tests of the operation skeleton (op.go): what every Table II operation
// shares is tested here once, over a table of all of them.

// engineConfig is one of the ways a program can execute: blocking, or
// nonblocking on the DAG scheduler or on the sequential drain that is its
// oracle.
type engineConfig struct {
	name  string
	mode  Mode
	sched Scheduler
}

var nonblockingConfigs = []engineConfig{
	{"sequential", NonBlocking, SchedSequential},
	{"dag", NonBlocking, SchedDag},
}

// underConfig runs f in a fresh context configured as cfg and restores the
// package's blocking context afterwards.
func underConfig(t *testing.T, cfg engineConfig, f func()) {
	t.Helper()
	withMode(t, cfg.mode, func() {
		SetScheduler(cfg.sched)
		if cfg.sched == SchedDag {
			defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(4))
		}
		f()
	})
}

// seqMatrix builds the dense nr×nc matrix with A(i,j) = 10i+j.
func seqMatrix(t *testing.T, nr, nc int) *Matrix[float64] {
	t.Helper()
	m, err := NewMatrix[float64](nr, nc)
	if err != nil {
		t.Fatal(err)
	}
	var is, js []int
	var vs []float64
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			is, js, vs = append(is, i), append(js, j), append(vs, float64(10*i+j))
		}
	}
	if err := m.Build(is, js, vs, NoAccum[float64]()); err != nil {
		t.Fatal(err)
	}
	return m
}

// seqVector builds the dense vector with u(i) = base+i.
func seqVector(t *testing.T, n int, base float64) *Vector[float64] {
	t.Helper()
	model := map[int]float64{}
	for i := 0; i < n; i++ {
		model[i] = base + float64(i)
	}
	return vecOf(t, n, model)
}

func matFingerprint(t *testing.T, m *Matrix[float64]) string {
	t.Helper()
	is, js, vs, err := m.ExtractTuples()
	if err != nil {
		t.Fatalf("ExtractTuples: %v", err)
	}
	return fmt.Sprint(is, js, vs)
}

func vecFingerprint(t *testing.T, v *Vector[float64]) string {
	t.Helper()
	is, vs, err := v.ExtractTuples()
	if err != nil {
		t.Fatalf("ExtractTuples: %v", err)
	}
	return fmt.Sprint(is, vs)
}

// TestIndexListsCapturedAtCall: §IV makes a nonblocking program equivalent
// to its blocking execution, so an index array belongs to the call that
// received it — the caller may reuse it the moment the method returns. Every
// extract and assign is called, its index slices are then overwritten with
// out-of-range and duplicate values, and after Wait the output must hold
// exactly the tuples blocking mode produces.
func TestIndexListsCapturedAtCall(t *testing.T) {
	na := NoAccum[float64]()
	scribble := func(lists ...[]int) {
		for _, l := range lists {
			for k := range l {
				l[k] = 99 // out of range everywhere, and duplicated
			}
			if len(l) > 1 {
				l[len(l)-1] = 0
			}
		}
	}
	// Each case builds its own objects, makes its call with fresh slices,
	// scribbles over them, and returns the output's tuples.
	cases := []struct {
		name string
		run  func(t *testing.T) string
	}{
		{"ExtractSubmatrix", func(t *testing.T) string {
			a, c := seqMatrix(t, 4, 4), seqMatrix(t, 2, 2)
			rows, cols := []int{0, 1}, []int{1, 2}
			if err := ExtractSubmatrix(c, NoMask, na, a, rows, cols, nil); err != nil {
				t.Fatal(err)
			}
			scribble(rows, cols)
			return matFingerprint(t, c)
		}},
		{"ExtractSubvector", func(t *testing.T) string {
			u, w := seqVector(t, 4, 10), seqVector(t, 2, 0)
			idx := []int{0, 1}
			if err := ExtractSubvector(w, NoMaskV, na, u, idx, nil); err != nil {
				t.Fatal(err)
			}
			scribble(idx)
			return vecFingerprint(t, w)
		}},
		{"ExtractColVector", func(t *testing.T) string {
			a, w := seqMatrix(t, 4, 4), seqVector(t, 2, 0)
			rows := []int{0, 2}
			if err := ExtractColVector(w, NoMaskV, na, a, rows, 1, nil); err != nil {
				t.Fatal(err)
			}
			scribble(rows)
			return vecFingerprint(t, w)
		}},
		{"AssignVector", func(t *testing.T) string {
			w, u := seqVector(t, 4, 0), seqVector(t, 2, 50)
			idx := []int{0, 1}
			if err := AssignVector(w, NoMaskV, na, u, idx, nil); err != nil {
				t.Fatal(err)
			}
			scribble(idx)
			return vecFingerprint(t, w)
		}},
		{"AssignVectorScalar", func(t *testing.T) string {
			w := seqVector(t, 4, 0)
			idx := []int{1, 3}
			if err := AssignVectorScalar(w, NoMaskV, na, 7, idx, nil); err != nil {
				t.Fatal(err)
			}
			scribble(idx)
			return vecFingerprint(t, w)
		}},
		{"AssignMatrix", func(t *testing.T) string {
			c, a := seqMatrix(t, 4, 4), seqMatrix(t, 2, 2)
			rows, cols := []int{0, 1}, []int{2, 3}
			if err := AssignMatrix(c, NoMask, na, a, rows, cols, nil); err != nil {
				t.Fatal(err)
			}
			scribble(rows, cols)
			return matFingerprint(t, c)
		}},
		{"AssignMatrixScalar", func(t *testing.T) string {
			c := seqMatrix(t, 4, 4)
			rows, cols := []int{0, 3}, []int{1, 2}
			if err := AssignMatrixScalar(c, NoMask, na, 5, rows, cols, nil); err != nil {
				t.Fatal(err)
			}
			scribble(rows, cols)
			return matFingerprint(t, c)
		}},
		{"AssignRow", func(t *testing.T) string {
			c, u := seqMatrix(t, 4, 4), seqVector(t, 2, 50)
			cols := []int{0, 3}
			if err := AssignRow(c, NoMaskV, na, u, 1, cols, nil); err != nil {
				t.Fatal(err)
			}
			scribble(cols)
			return matFingerprint(t, c)
		}},
		{"AssignCol", func(t *testing.T) string {
			c, u := seqMatrix(t, 4, 4), seqVector(t, 2, 50)
			rows := []int{0, 3}
			if err := AssignCol(c, NoMaskV, na, u, rows, 2, nil); err != nil {
				t.Fatal(err)
			}
			scribble(rows)
			return matFingerprint(t, c)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			underConfig(t, engineConfig{"blocking", Blocking, SchedSequential}, func() { want = tc.run(t) })
			for _, cfg := range nonblockingConfigs {
				underConfig(t, cfg, func() {
					if got := tc.run(t); got != want {
						t.Errorf("%s: tuples %s, blocking mode gives %s", cfg.name, got, want)
					}
				})
			}
		})
	}
}

// precFault is one way an argument of a call can be wrong, in the order of
// the API's error precedence (errRank): when a call is wrong in several
// ways, the fault listed first is the one reported.
type precFault int

const (
	faultNone precFault = iota
	faultNil
	faultFreed
	faultOperator
	faultMixed
	faultDims
	faultIndexRange
	faultIndexDup
)

var precFaultNames = [...]string{"none", "nil", "freed", "operator", "mixed", "dims", "index-range", "index-dup"}

// reported says whether err is the API error the fault must produce.
func (f precFault) reported(err error) bool {
	msg := fmt.Sprint(err)
	switch f {
	case faultNil:
		return InfoOf(err) == UninitializedObject && strings.Contains(msg, "is nil")
	case faultFreed:
		return InfoOf(err) == UninitializedObject && strings.Contains(msg, "freed")
	case faultOperator:
		return InfoOf(err) == UninitializedObject && strings.HasSuffix(msg, "not initialized")
	case faultMixed:
		return InfoOf(err) == InvalidValue && strings.Contains(msg, "engine instances")
	case faultDims:
		return InfoOf(err) == DimensionMismatch
	case faultIndexRange:
		return InfoOf(err) == InvalidIndex
	case faultIndexDup:
		return InfoOf(err) == InvalidValue && strings.Contains(msg, "duplicate")
	}
	return err == nil
}

// precEnv hands an operation its arguments, each as wrong as the scenario
// under test says: object arguments by role ("out", "in0", "in1", "mask"),
// the operator, and the index arguments.
type precEnv struct {
	t       *testing.T
	other   *Instance
	objects map[string]precFault
	noOp    bool
	index   precFault // faultIndexRange (with a duplicate behind it), or faultIndexDup alone
}

func precObject[T any](e *precEnv, role string, mk func(in *Instance, grow int) (T, func() error)) T {
	var zero T
	f := e.objects[role]
	if f == faultNil {
		return zero
	}
	var in *Instance
	if f == faultMixed {
		in = e.other
	}
	grow := 0
	if f == faultDims {
		grow = 1
	}
	o, free := mk(in, grow)
	if f == faultFreed {
		if err := free(); err != nil {
			e.t.Fatalf("Free: %v", err)
		}
	}
	return o
}

func precMat[D any](e *precEnv, role string, nr, nc int) *Matrix[D] {
	return precObject(e, role, func(in *Instance, grow int) (*Matrix[D], func() error) {
		var m *Matrix[D]
		var err error
		if in != nil {
			m, err = NewMatrixIn[D](in, nr+grow, nc+2*grow)
		} else {
			m, err = NewMatrix[D](nr+grow, nc+2*grow)
		}
		if err != nil {
			e.t.Fatal(err)
		}
		return m, m.Free
	})
}

func precVec[D any](e *precEnv, role string, n int) *Vector[D] {
	return precObject(e, role, func(in *Instance, grow int) (*Vector[D], func() error) {
		var v *Vector[D]
		var err error
		if in != nil {
			v, err = NewVectorIn[D](in, n+grow)
		} else {
			v, err = NewVector[D](n + grow)
		}
		if err != nil {
			e.t.Fatal(err)
		}
		return v, v.Free
	})
}

func (e *precEnv) mat(role string, nr, nc int) *Matrix[float64] {
	return precMat[float64](e, role, nr, nc)
}
func (e *precEnv) vec(role string, n int) *Vector[float64] { return precVec[float64](e, role, n) }
func (e *precEnv) maskM(nr, nc int) *Matrix[bool]          { return precMat[bool](e, "mask", nr, nc) }
func (e *precEnv) maskV(n int) *Vector[bool]               { return precVec[bool](e, "mask", n) }

// list returns the three-element index list {0, 2, 3} over [0, bound) with
// the scenario's index faults applied: a repeated first index, then — taking
// precedence — a last index out of range.
func (e *precEnv) list(bound int) []int {
	l := []int{0, 2, 3}
	if e.index == faultIndexRange || e.index == faultIndexDup {
		l[1] = l[0]
	}
	if e.index == faultIndexRange {
		l[2] = bound
	}
	return l
}

// at returns a valid position in [0, bound), or bound itself when the
// scenario has an index out of range.
func (e *precEnv) at(bound int) int {
	if e.index == faultIndexRange {
		return bound
	}
	return 1
}

func (e *precEnv) unary() UnaryOp[float64, float64] {
	if e.noOp {
		return UnaryOp[float64, float64]{}
	}
	return UnaryOp[float64, float64]{Name: "id", F: func(x float64) float64 { return x }}
}

func (e *precEnv) binary() BinaryOp[float64, float64, float64] {
	if e.noOp {
		return BinaryOp[float64, float64, float64]{}
	}
	return plusF64()
}

func (e *precEnv) indexOp() IndexUnaryOp[float64, float64] {
	if e.noOp {
		return IndexUnaryOp[float64, float64]{}
	}
	return IndexUnaryOp[float64, float64]{Name: "val", F: func(x float64, _, _ int) float64 { return x }}
}

func (e *precEnv) pred() IndexUnaryOp[float64, bool] {
	if e.noOp {
		return IndexUnaryOp[float64, bool]{}
	}
	return IndexUnaryOp[float64, bool]{Name: "all", F: func(float64, int, int) bool { return true }}
}

func (e *precEnv) monoid() Monoid[float64] { return Monoid[float64]{Op: e.binary()} }

func (e *precEnv) semiring() Semiring[float64, float64, float64] {
	return Semiring[float64, float64, float64]{Add: Monoid[float64]{Op: plusF64()}, Mul: e.binary()}
}

// precOp is one operation of the table: which kinds of argument it has and
// a call with every argument drawn from the environment. Shapes: matrices
// are 5×5, vectors size 5, index lists select 3.
type precOp struct {
	name   string
	inputs int  // object inputs besides output and mask
	op     bool // takes an operator, monoid or semiring
	index  bool // takes index arguments
	unique bool // … that must be duplicate-free (assign)
	call   func(e *precEnv) error
}

var precOps = func() []precOp {
	na := NoAccum[float64]()
	const n, k = 5, 3
	return []precOp{
		{"ApplyM", 1, true, false, false, func(e *precEnv) error {
			return ApplyM(e.mat("out", n, n), e.maskM(n, n), na, e.unary(), e.mat("in0", n, n), nil)
		}},
		{"ApplyV", 1, true, false, false, func(e *precEnv) error {
			return ApplyV(e.vec("out", n), e.maskV(n), na, e.unary(), e.vec("in0", n), nil)
		}},
		{"ApplyBindFirstM", 1, true, false, false, func(e *precEnv) error {
			return ApplyBindFirstM(e.mat("out", n, n), e.maskM(n, n), na, e.binary(), 2, e.mat("in0", n, n), nil)
		}},
		{"ApplyBindSecondM", 1, true, false, false, func(e *precEnv) error {
			return ApplyBindSecondM(e.mat("out", n, n), e.maskM(n, n), na, e.binary(), e.mat("in0", n, n), 2, nil)
		}},
		{"ApplyBindFirstV", 1, true, false, false, func(e *precEnv) error {
			return ApplyBindFirstV(e.vec("out", n), e.maskV(n), na, e.binary(), 2, e.vec("in0", n), nil)
		}},
		{"ApplyBindSecondV", 1, true, false, false, func(e *precEnv) error {
			return ApplyBindSecondV(e.vec("out", n), e.maskV(n), na, e.binary(), e.vec("in0", n), 2, nil)
		}},
		{"ApplyIndexOpM", 1, true, false, false, func(e *precEnv) error {
			return ApplyIndexOpM(e.mat("out", n, n), e.maskM(n, n), na, e.indexOp(), e.mat("in0", n, n), nil)
		}},
		{"ApplyIndexOpV", 1, true, false, false, func(e *precEnv) error {
			return ApplyIndexOpV(e.vec("out", n), e.maskV(n), na, e.indexOp(), e.vec("in0", n), nil)
		}},
		{"EWiseAddM", 2, true, false, false, func(e *precEnv) error {
			return EWiseAddM(e.mat("out", n, n), e.maskM(n, n), na, e.binary(), e.mat("in0", n, n), e.mat("in1", n, n), nil)
		}},
		{"EWiseAddMonoidM", 2, true, false, false, func(e *precEnv) error {
			return EWiseAddMonoidM(e.mat("out", n, n), e.maskM(n, n), na, e.monoid(), e.mat("in0", n, n), e.mat("in1", n, n), nil)
		}},
		{"EWiseAddV", 2, true, false, false, func(e *precEnv) error {
			return EWiseAddV(e.vec("out", n), e.maskV(n), na, e.binary(), e.vec("in0", n), e.vec("in1", n), nil)
		}},
		{"EWiseAddMonoidV", 2, true, false, false, func(e *precEnv) error {
			return EWiseAddMonoidV(e.vec("out", n), e.maskV(n), na, e.monoid(), e.vec("in0", n), e.vec("in1", n), nil)
		}},
		{"EWiseMultM", 2, true, false, false, func(e *precEnv) error {
			return EWiseMultM(e.mat("out", n, n), e.maskM(n, n), na, e.binary(), e.mat("in0", n, n), e.mat("in1", n, n), nil)
		}},
		{"EWiseMultSemiringM", 2, true, false, false, func(e *precEnv) error {
			return EWiseMultSemiringM(e.mat("out", n, n), e.maskM(n, n), na, e.semiring(), e.mat("in0", n, n), e.mat("in1", n, n), nil)
		}},
		{"EWiseMultV", 2, true, false, false, func(e *precEnv) error {
			return EWiseMultV(e.vec("out", n), e.maskV(n), na, e.binary(), e.vec("in0", n), e.vec("in1", n), nil)
		}},
		{"EWiseUnionM", 2, true, false, false, func(e *precEnv) error {
			return EWiseUnionM(e.mat("out", n, n), e.maskM(n, n), na, e.binary(), e.mat("in0", n, n), 0, e.mat("in1", n, n), 0, nil)
		}},
		{"EWiseUnionV", 2, true, false, false, func(e *precEnv) error {
			return EWiseUnionV(e.vec("out", n), e.maskV(n), na, e.binary(), e.vec("in0", n), 0, e.vec("in1", n), 0, nil)
		}},
		{"SelectM", 1, true, false, false, func(e *precEnv) error {
			return SelectM(e.mat("out", n, n), e.maskM(n, n), na, e.pred(), e.mat("in0", n, n), nil)
		}},
		{"SelectV", 1, true, false, false, func(e *precEnv) error {
			return SelectV(e.vec("out", n), e.maskV(n), na, e.pred(), e.vec("in0", n), nil)
		}},
		{"Kronecker", 2, true, false, false, func(e *precEnv) error {
			return Kronecker(e.mat("out", n*n, n*n), e.maskM(n*n, n*n), na, e.binary(), e.mat("in0", n, n), e.mat("in1", n, n), nil)
		}},
		{"Transpose", 1, false, false, false, func(e *precEnv) error {
			return Transpose(e.mat("out", n, n), e.maskM(n, n), na, e.mat("in0", n, n), nil)
		}},
		{"ExtractSubmatrix", 1, false, true, false, func(e *precEnv) error {
			return ExtractSubmatrix(e.mat("out", k, k), e.maskM(k, k), na, e.mat("in0", n, n), e.list(n), e.list(n), nil)
		}},
		{"ExtractSubvector", 1, false, true, false, func(e *precEnv) error {
			return ExtractSubvector(e.vec("out", k), e.maskV(k), na, e.vec("in0", n), e.list(n), nil)
		}},
		{"ExtractColVector", 1, false, true, false, func(e *precEnv) error {
			return ExtractColVector(e.vec("out", k), e.maskV(k), na, e.mat("in0", n, n), e.list(n), e.at(n), nil)
		}},
		{"AssignVector", 1, false, true, true, func(e *precEnv) error {
			return AssignVector(e.vec("out", n), e.maskV(n), na, e.vec("in0", k), e.list(n), nil)
		}},
		{"AssignVectorScalar", 0, false, true, true, func(e *precEnv) error {
			return AssignVectorScalar(e.vec("out", n), e.maskV(n), na, 7, e.list(n), nil)
		}},
		{"AssignMatrix", 1, false, true, true, func(e *precEnv) error {
			return AssignMatrix(e.mat("out", n, n), e.maskM(n, n), na, e.mat("in0", k, k), e.list(n), e.list(n), nil)
		}},
		{"AssignMatrixScalar", 0, false, true, true, func(e *precEnv) error {
			return AssignMatrixScalar(e.mat("out", n, n), e.maskM(n, n), na, 7, e.list(n), e.list(n), nil)
		}},
		{"AssignRow", 1, false, true, true, func(e *precEnv) error {
			return AssignRow(e.mat("out", n, n), e.maskV(n), na, e.vec("in0", k), e.at(n), e.list(n), nil)
		}},
		{"AssignCol", 1, false, true, true, func(e *precEnv) error {
			return AssignCol(e.mat("out", n, n), e.maskV(n), na, e.vec("in0", k), e.list(n), e.at(n), nil)
		}},
		{"ReduceMatrixToVector", 1, true, false, false, func(e *precEnv) error {
			return ReduceMatrixToVector(e.vec("out", n), e.maskV(n), na, e.monoid(), e.mat("in0", n, n), nil)
		}},
		{"MxM", 2, true, false, false, func(e *precEnv) error {
			return MxM(e.mat("out", n, n), e.maskM(n, n), na, e.semiring(), e.mat("in0", n, n), e.mat("in1", n, n), nil)
		}},
		{"MxV", 2, true, false, false, func(e *precEnv) error {
			return MxV(e.vec("out", n), e.maskV(n), na, e.semiring(), e.mat("in0", n, n), e.vec("in1", n), nil)
		}},
		{"VxM", 2, true, false, false, func(e *precEnv) error {
			return VxM(e.vec("out", n), e.maskV(n), na, e.semiring(), e.vec("in0", n), e.mat("in1", n, n), nil)
		}},
	}
}()

// TestAPIErrorPrecedence pins the one error precedence of the API: context →
// nil handle → uninitialized or freed object → undefined operator → operands
// of different engine instances → dimension mismatch → index out of range →
// duplicate assign index. Every operation is called with each of its
// arguments in turn carrying each fault it can carry, while every other
// argument carries a fault that comes later in the precedence; the call
// must report the earlier one.
func TestAPIErrorPrecedence(t *testing.T) {
	roleFaults := map[string][]precFault{
		"out":  {faultNil, faultFreed, faultDims},
		"in0":  {faultNil, faultFreed, faultMixed, faultDims},
		"in1":  {faultNil, faultFreed, faultMixed, faultDims},
		"mask": {faultFreed, faultMixed, faultDims}, // a nil mask is GrB_NULL, not an error
	}
	// later returns the first fault after f that role can carry.
	later := func(role string, f precFault) precFault {
		for _, g := range roleFaults[role] {
			if g > f {
				return g
			}
		}
		return faultNone
	}
	for _, op := range precOps {
		roles := []string{"out", "in0", "in1", "mask"}
		if op.inputs < 2 {
			roles = []string{"out", "in0", "mask"}
		}
		if op.inputs < 1 {
			roles = []string{"out", "mask"}
		}
		// scenario runs op with fault f on role (role "" for the operator and
		// index faults) and a later fault everywhere else.
		scenario := func(role string, f precFault) {
			t.Run(fmt.Sprintf("%s/%s/%s", op.name, precFaultNames[f], role), func(t *testing.T) {
				withMode(t, NonBlocking, func() {
					other, err := NewInstance(NonBlocking)
					if err != nil {
						t.Fatal(err)
					}
					e := &precEnv{t: t, other: other, objects: map[string]precFault{}}
					for _, r := range roles {
						e.objects[r] = later(r, f)
					}
					if role != "" {
						e.objects[role] = f
					}
					e.noOp = op.op && f <= faultOperator
					if op.index {
						e.index = faultIndexDup
						if f <= faultIndexRange {
							e.index = faultIndexRange
						}
					}
					if err := op.call(e); !f.reported(err) {
						t.Errorf("got %v, want the %s error", err, precFaultNames[f])
					}
				})
			})
		}
		for _, role := range roles {
			for _, f := range roleFaults[role] {
				if extract := op.index && !op.unique; extract && role == "in0" && f == faultDims {
					continue // an extract's result shape comes from its index lists, not its input
				}
				scenario(role, f)
			}
		}
		if op.op {
			scenario("", faultOperator)
		}
		if op.index {
			scenario("", faultIndexRange)
			if op.unique {
				scenario("", faultIndexDup)
			}
		}
		// Before Init nothing else about the call matters.
		t.Run(op.name+"/context", func(t *testing.T) {
			withMode(t, NonBlocking, func() {
				ResetForTesting()
				e := &precEnv{t: t, noOp: true, index: faultIndexRange, objects: map[string]precFault{}}
				for _, r := range roles {
					e.objects[r] = faultNil
				}
				if err := op.call(e); InfoOf(err) != UninitializedContext {
					t.Errorf("before Init: got %v, want UninitializedContext", err)
				}
			})
		})
	}
}
