package core

// The operation skeleton: Figure 2 of the paper, written once.
//
// Section VI defines GrB_mxm in three steps — form the internal operands per
// the descriptor, compute T, write T into C under mask, accumulator and
// REPLACE — and every other Table II operation gives mask, accumulator and
// descriptor the same meaning. This file holds what they share:
//
//	check    opSpec: every argument is tested as it is handed over (handles,
//	         engine instance, shapes, index lists) and opSpec.check reports
//	         the failure the one precedence, errRank, puts first
//	enqueue  enqueue(opSpec, run): the footprint, the overwrite flag and the
//	         span all derive from the spec
//	commit   matWrite/vecWrite: resolve the mask, pick the write mode, install
//
// An operation keeps only what is its own: whether its operator is defined,
// its shape rule (conform and yields, over the already-transposed input
// shapes), and the compute that turns the oriented input stores into T and
// hands it to commit from inside the one closure it passes to enqueue.

import (
	"fmt"
	"slices"

	"graphblas/internal/obs"
	"graphblas/internal/pool"
	"graphblas/internal/sparse"
)

// shape is the extent of a matrix (nr×nc) or of a vector (nr, vec set).
type shape struct {
	nr, nc int
	vec    bool
}

func vecShape(n int) shape { return shape{nr: n, nc: 1, vec: true} }

func (s shape) String() string {
	if s.vec {
		return fmt.Sprintf("size %d", s.nr)
	}
	return fmt.Sprintf("%dx%d", s.nr, s.nc)
}

// operand is one object argument as the check step sees it: the untyped base
// (nil when the caller passed a nil handle) and the shape after the
// descriptor's transpose.
type operand struct {
	o *obj
	shape
}

// matArg describes a matrix argument; tran applies GrB_TRAN to its shape.
func matArg[D any](m *Matrix[D], tran bool) operand {
	if m == nil {
		return operand{}
	}
	if tran {
		return operand{o: &m.obj, shape: shape{nr: m.nc, nc: m.nr}}
	}
	return operand{o: &m.obj, shape: shape{nr: m.nr, nc: m.nc}}
}

// vecArg describes a vector argument.
func vecArg[D any](v *Vector[D]) operand {
	if v == nil {
		return operand{}
	}
	return operand{o: &v.obj, shape: vecShape(v.n)}
}

// oriented returns the store an operation's compute step reads for a matrix
// input: the (cached) transpose when the descriptor asked for one.
func (m *Matrix[D]) oriented(tran bool) *sparse.CSR[D] {
	if tran {
		return m.transposed()
	}
	return m.mdat()
}

// errRank is the one error precedence of the API (§V, CONFORMANCE.md "Error
// model"): a call that is wrong in several ways reports the error of lowest
// rank, and among errors of one rank the argument given first — output,
// mask, first input, second input, then index arguments in order. The
// uninitialized context precedes them all (opSpec.check).
type errRank uint8

const (
	rankNil      errRank = iota + 1 // a required handle is nil
	rankFreed                       // an object was never initialized, or freed
	rankOperator                    // the operator, monoid or semiring is undefined
	rankMixed                       // operands belong to different engine instances
	rankConform                     // the inputs (and index lists) do not fit each other
	rankResult                      // the output does not have the result's shape
	rankMask                        // the mask does not have the output's shape
	rankIndex                       // an index is out of range, or repeated in an assign list
)

// opSpec is everything Figure 2 says about one call that does not depend on
// a domain. The typed constructors (matOp, vecOp) start it from the output,
// mask, accumulator and descriptor; the operation hands it its inputs, index
// lists and shape rule, each tested as it arrives; check reports the
// precedence-first failure; enqueue derives the pending operation from it.
// It lives on the caller's stack and travels by value.
type opSpec struct {
	name     string
	out      *obj
	mask     *obj // nil: no write mask (GrB_NULL)
	in       [2]*obj
	nin      int
	outShape shape

	err  error // the lowest-ranked API error found so far
	rank errRank

	accum, replace bool
	// keeps says the run closure reads the output's prior content whatever
	// the mask and accumulator are: a region assign, a point update, a trim.
	keeps bool
	// span is set by operations that thread their span into kernel dispatch
	// (the multiply family); enqueue opens one for everything else.
	span *obs.Span
}

// begin starts the spec of a Figure 2 operation in place, on the caller's
// stack. maskLike is the shape the mask must have: the output's, except for
// the row and column assigns.
func (s *opSpec) begin(name string, out, mask operand, maskLike shape, accum bool, desc *Descriptor) {
	s.name, s.outShape, s.accum, s.replace = name, out.shape, accum, desc.replace()
	s.out = s.live(out, "output")
	if mask.o != nil {
		s.mask = s.live(mask, "mask")
		if mask.shape != maskLike {
			s.fail(rankMask, DimensionMismatch, "mask is %v, expected %v", mask.shape, maskLike)
		}
	}
}

// methodSpec is the spec of an object method that enters the queue without
// Figure 2's pipeline (Dup, Clear, Resize, SetElement, Diag, …): out is the
// receiver or the fresh result, src the one object the closure reads (nil
// for none), keeps whether it builds on out's prior content.
func methodSpec(name string, out, src *obj, keeps bool) opSpec {
	s := opSpec{name: name, out: out, keeps: keeps}
	if src != nil {
		s.in[0], s.nin = src, 1
	}
	return s
}

// fail records an API error unless one of the same or a lower rank is
// already held.
func (s *opSpec) fail(rank errRank, info Info, format string, args ...any) {
	if s.err == nil || rank < s.rank {
		s.err, s.rank = errf(info, s.name, format, args...), rank
	}
}

// live tests one object argument — present, initialized, and of the same
// engine instance as the output — and returns its base.
func (s *opSpec) live(a operand, role string) *obj {
	switch {
	case a.o == nil:
		s.fail(rankNil, UninitializedObject, "%s is nil", role)
	case !a.o.initialized:
		s.fail(rankFreed, UninitializedObject, "%s has not been initialized (freed?)", role)
	case s.out != nil && a.o.ctx != s.out.ctx:
		s.fail(rankMixed, InvalidValue, "operands are bound to different engine instances")
	}
	return a.o
}

var inputRoles = [2]string{"first input", "second input"}

// input hands the skeleton one input operand and returns its shape for the
// operation's shape rule. Inputs enter the footprint in this order.
func (s *opSpec) input(a operand) shape {
	s.in[s.nin] = s.live(a, inputRoles[s.nin])
	s.nin++
	return a.shape
}

// conform is the first half of an operation's shape rule: ok says whether
// the inputs (or an input and the region an index list selects) fit each
// other; x and y are what was compared, for the message.
func (s *opSpec) conform(ok bool, x, y shape) {
	if !ok {
		s.fail(rankConform, DimensionMismatch, "operands do not conform: %v against %v", x, y)
	}
}

// yields is the second half: the shape of the result T, which the output
// must have.
func (s *opSpec) yields(result shape) {
	if s.outShape != result {
		s.fail(rankResult, DimensionMismatch, "output is %v, result is %v", s.outShape, result)
	}
}

// assigns marks an assign into a region of the output: Z is built from the
// output's prior content, so the operation overwrites the output only when
// the region is all of it (GrB_ALL) — and, REPLACE or not, only without a
// mask. That is conservative under REPLACE, where the merge reads nothing
// of C: dead-store elimination then keeps a write it could have dropped.
func (s *opSpec) assigns(all bool) { s.keeps = !all || s.mask != nil }

// indices hands the skeleton an index list over [0, bound) and returns the
// list the compute step must use: a private copy taken now, before it is
// validated, so what was validated is what runs however the caller reuses
// its slice before the sequence completes (§IV). nil is GrB_ALL, the
// identity list. unique marks an assign target, where a repeated index
// would make the result ill-defined; a strictly ascending list has none to
// find.
func (s *opSpec) indices(role string, list []int, bound int, unique bool) []int {
	if list == nil {
		list = make([]int, bound)
		for i := range list {
			list[i] = i
		}
		return list
	}
	list = append(make([]int, 0, len(list)), list...)
	ascending := true
	for k, i := range list {
		if i < 0 || i >= bound {
			s.fail(rankIndex, InvalidIndex, "%s index %d out of range [0,%d)", role, i, bound)
			return list
		}
		if k > 0 && i <= list[k-1] {
			ascending = false
		}
	}
	if unique && !ascending {
		seen := pool.GetBools(bound)
		for _, i := range list {
			if seen[i] {
				s.fail(rankIndex, InvalidValue, "duplicate %s index %d in assign index list", role, i)
				break
			}
			seen[i] = true
		}
		pool.PutBools(seen)
	}
	return list
}

// targets is indices for the target list of a vector assign, whose kernels
// read nil as the identity: GrB_ALL stays nil, so no n-long list is built
// for it, and an explicit list that validates as the identity — n unique
// targets in ascending order — becomes nil too.
func (s *opSpec) targets(list []int, bound int) []int {
	if list == nil {
		return nil
	}
	list = s.indices("element", list, bound, true)
	if s.err == nil && len(list) == bound && slices.IsSorted(list) {
		return nil
	}
	return list
}

// position hands the skeleton a single row or column index.
func (s *opSpec) position(role string, at, bound int) {
	if at < 0 || at >= bound {
		s.fail(rankIndex, InvalidIndex, "%s %d out of range [0,%d)", role, at, bound)
	}
}

// check closes the API-error half of an operation (§V: detected at the
// call, no argument changed): the context must be initialized, the
// operation's own operator defined, and nothing handed to the spec may have
// failed.
func (s *opSpec) check(opDefined bool, opNoun string) error {
	if err := checkActive(s.name); err != nil {
		return err
	}
	if !opDefined {
		s.fail(rankOperator, UninitializedObject, "%s not initialized", opNoun)
	}
	return s.err
}

// checkSource is the check step of a method whose only object argument is
// one it reads (the scalar reductions, Diag).
func checkSource(name string, src operand, opDefined bool, opNoun string) error {
	s := opSpec{name: name}
	s.live(src, "input")
	return s.check(opDefined, opNoun)
}

// overwrites reports whether the operation determines the output's whole
// content without reading its prior content — what dead-store elimination,
// invalid-output rehabilitation and the adopting commit all key on.
func (s *opSpec) overwrites() bool {
	return !s.accum && !s.keeps && (s.mask == nil || s.replace)
}

// readSet is an operation's read footprint, held inline in its pending
// record: at most two inputs and a mask.
type readSet struct {
	objs [3]*obj
	n    int
}

// list returns the objects read, inputs first, then the mask.
func (r *readSet) list() []*obj { return r.objs[:r.n] }

// footprint is the read set the hazard DAG sees: every input the skeleton
// was handed, then the mask.
func (s *opSpec) footprint() readSet {
	var r readSet
	r.n = len(maskReads(append(r.objs[:0], s.in[:s.nin]...), s.mask))
	return r
}

// writeMode selects how commit installs the compute step's result.
type writeMode uint8

const (
	// writeT: T is the operation's result; accumulate into C, then apply
	// mask and REPLACE (sparse.WriteCSR / WriteVec).
	writeT writeMode = iota
	// mergeZ: the assign family hands over Z = C with the region already
	// accumulated, so only the mask merge remains (sparse.MaskMerge*).
	mergeZ
	// adoptT: the compute step applied the mask to T itself (every MxM
	// kernel does), so when the operation overwrites C nothing of the old C
	// survives and T is C: adopt it and skip the pass over C, T and M.
	adoptT
	// cloneT: T may be an input's own store or its shared transpose cache
	// (Transpose); an unmasked write-back would hand that store to C, so
	// copy first.
	cloneT
)

// matWrite is the commit step for a matrix output: the few words a run
// closure needs to write T back, small enough to be captured by value.
// accumOp is the accumulator's opcode, read once when the operation is
// enqueued, so that a predefined accumulator runs its compiled loop
// (sparse.Opcode).
type matWrite[DC, DM any] struct {
	c             *Matrix[DC]
	mask          *Matrix[DM]
	accumF        func(DC, DC) DC
	accumOp       sparse.Opcode
	scmp, replace bool
	mode          writeMode
	adopt         bool
}

// matOp opens a Figure 2 operation with a matrix output and matrix mask.
func matOp[DC, DM any](s *opSpec, name string, c *Matrix[DC], mask *Matrix[DM], accum BinaryOp[DC, DC, DC], desc *Descriptor, mode writeMode) matWrite[DC, DM] {
	out := matArg(c, false)
	s.begin(name, out, matArg(mask, false), out.shape, accum.Defined(), desc)
	return matWrite[DC, DM]{c: c, mask: mask, accumF: accum.F, accumOp: accum.opcode(), scmp: desc.scmp(), replace: s.replace,
		mode: mode, adopt: mode == adoptT && s.overwrites()}
}

// maskNow resolves the mask from its committed store; run-time only.
func (b matWrite[DC, DM]) maskNow() *sparse.MatMask { return resolveMatMask(b.mask, b.scmp) }

// write installs t under an already-resolved mask. A kernel's result that
// a mask or an accumulator merged into a new store is dead once the merge
// is in, and nothing else holds it: it is released at once — unless it is
// an input's own store (cloneT).
func (b matWrite[DC, DM]) write(t *sparse.CSR[DC], mm *sparse.MatMask) {
	if b.adopt {
		b.c.setData(t)
		return
	}
	var res *sparse.CSR[DC]
	if b.mode == mergeZ {
		res = sparse.MaskMergeCSR(b.c.mdat(), t, mm, b.replace)
	} else {
		res = sparse.WriteCSR(b.c.mdat(), t, mm, b.accumF, b.accumOp, b.replace)
	}
	switch {
	case b.mode == cloneT && res == t:
		res = t.Clone()
	case b.mode != cloneT && res != t:
		t.Release()
	}
	b.c.setData(res)
}

// commit resolves the mask, installs t and gives back what resolving drew.
func (b matWrite[DC, DM]) commit(t *sparse.CSR[DC]) {
	mm := b.maskNow()
	b.write(t, mm)
	releaseMatMask(mm)
}

// vecWrite is matWrite for a vector output.
type vecWrite[DC, DM any] struct {
	w             *Vector[DC]
	mask          *Vector[DM]
	accumF        func(DC, DC) DC
	accumOp       sparse.Opcode
	scmp, replace bool
	mode          writeMode
}

// vecOp opens a Figure 2 operation with a vector output and vector mask.
func vecOp[DC, DM any](s *opSpec, name string, w *Vector[DC], mask *Vector[DM], accum BinaryOp[DC, DC, DC], desc *Descriptor, mode writeMode) vecWrite[DC, DM] {
	out := vecArg(w)
	s.begin(name, out, vecArg(mask), out.shape, accum.Defined(), desc)
	return vecWrite[DC, DM]{w: w, mask: mask, accumF: accum.F, accumOp: accum.opcode(), scmp: desc.scmp(), replace: s.replace, mode: mode}
}

func (b vecWrite[DC, DM]) maskNow() *sparse.VecMask { return resolveVecMask(b.mask, b.scmp) }

// write installs t under an already-resolved mask. A kernel's result that
// a mask or an accumulator merged into a new store is dead once the merge
// is in, and nothing else holds it: it is released at once.
func (b vecWrite[DC, DM]) write(t *sparse.Vec[DC], vm *sparse.VecMask) {
	var res *sparse.Vec[DC]
	if b.mode == mergeZ {
		res = sparse.MaskMergeVec(b.w.vdat(), t, vm, b.replace)
	} else {
		res = sparse.WriteVec(b.w.vdat(), t, vm, b.accumF, b.accumOp, b.replace)
	}
	b.w.setVData(res)
	if res != t {
		t.Release()
	}
}

// mergeInput is the mergeZ commit of an input's own store z under a mask:
// the merge builds a new store from it, and z stays the input's.
func (b vecWrite[DC, DM]) mergeInput(z *sparse.Vec[DC]) {
	vm := b.maskNow()
	b.w.setVData(sparse.MaskMergeVec(b.w.vdat(), z, vm, b.replace))
	releaseVecMask(vm)
}

func (b vecWrite[DC, DM]) commit(t *sparse.Vec[DC]) {
	vm := b.maskNow()
	b.write(t, vm)
	releaseVecMask(vm)
}
