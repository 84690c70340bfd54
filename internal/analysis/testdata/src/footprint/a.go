// Package footprint holds the golden cases for the footprint analyzer:
// every *Matrix/*Vector a deferred kernel closure captures must be one the
// operation skeleton was handed (the output and mask given to vecOp/matOp,
// an input passed through opSpec.input, or methodSpec's out and src), masks
// must stay distinguishable from data operands, and no store dereference may
// happen on the enqueue path outside the closures.
//
// The package mirrors the engine's skeleton: an obj identity struct,
// Vector/Matrix wrappers with vdat/mdat store accessors, the operand and
// opSpec types with begin/input/footprint, the typed constructors, the
// single enqueue entry point, and the maskReads helper.
package footprint

type obj struct{ id uint64 }

type store struct{ vals []float64 }

// Vector mirrors core.Vector: an obj header plus a store.
type Vector struct {
	obj  obj
	data *store
}

func (v *Vector) vdat() *store { return v.data }

// Matrix mirrors core.Matrix.
type Matrix struct {
	obj  obj
	data *store
}

func (m *Matrix) mdat() *store { return m.data }

// oriented mirrors core.Matrix.oriented: a store read under a descriptor bit.
func (m *Matrix) oriented(tran bool) *store { return m.data }

// operand mirrors core.operand.
type operand struct{ o *obj }

func vecArg(v *Vector) operand {
	if v == nil {
		return operand{}
	}
	return operand{o: &v.obj}
}

func matArg(m *Matrix, tran bool) operand {
	if m == nil {
		return operand{}
	}
	return operand{o: &m.obj}
}

// opSpec mirrors core.opSpec: what the skeleton was handed.
type opSpec struct {
	name string
	out  *obj
	mask *obj
	in   [2]*obj
	nin  int
}

func (s *opSpec) begin(name string, out, mask operand) {
	s.name, s.out, s.mask = name, out.o, mask.o
}

func (s *opSpec) input(a operand) {
	s.in[s.nin] = a.o
	s.nin++
}

func (s *opSpec) footprint() []*obj {
	return maskReads(append([]*obj(nil), s.in[:s.nin]...), s.mask)
}

func methodSpec(name string, out, src *obj, keeps bool) opSpec {
	s := opSpec{name: name, out: out}
	if src != nil {
		s.in[0], s.nin = src, 1
	}
	return s
}

// vecWrite mirrors core.vecWrite: the typed commit step.
type vecWrite struct{ w, mask *Vector }

func (b vecWrite) commit(t *store) { b.w.data = t }

func vecOp(s *opSpec, name string, w, mask *Vector) vecWrite {
	s.begin(name, vecArg(w), vecArg(mask))
	return vecWrite{w: w, mask: mask}
}

type matWrite struct{ c, mask *Matrix }

func (b matWrite) commit(t *store) { b.c.data = t }

func matOp(s *opSpec, name string, c, mask *Matrix) matWrite {
	s.begin(name, matArg(c, false), matArg(mask, false))
	return matWrite{c: c, mask: mask}
}

type pendingOp struct {
	out   *obj
	reads []*obj
	run   func() error
}

func enqueue(s opSpec, run func() error) error {
	op := &pendingOp{out: s.out, reads: s.footprint(), run: run}
	return op.run()
}

func maskReads(reads []*obj, mask *obj) []*obj {
	if mask != nil {
		reads = append(reads, mask)
	}
	return reads
}

// applyGood is the canonical well-formed op: the run closure touches only
// the output, the handed input, and the mask given in the mask position.
func applyGood(w, u, mask *Vector) error {
	var s opSpec
	wb := vecOp(&s, "apply", w, mask)
	s.input(vecArg(u))
	return enqueue(s, func() error {
		if mask != nil {
			_ = mask.vdat()
		}
		wb.commit(u.vdat())
		return nil
	})
}

// lineGood is the AssignRow shape: no typed constructor, the spec begun by
// hand with the output traced through a local operand.
func lineGood(c *Matrix, u, mask *Vector) error {
	var s opSpec
	out := matArg(c, false)
	s.begin("assignrow", out, vecArg(mask))
	s.input(vecArg(u))
	return enqueue(s, func() error {
		_ = u.vdat()
		_ = mask.vdat()
		c.data = c.mdat()
		return nil
	})
}

// dupGood is the object-method shape: methodSpec names the fresh result and
// the one source.
func dupGood(w, v *Vector) error {
	return enqueue(methodSpec("dup", &w.obj, &v.obj, false), func() error {
		w.data = v.vdat()
		return nil
	})
}

// droppedRead is the must-flag acceptance case: v is consumed by the kernel
// but was never handed to the skeleton, so the derived footprint misses it
// and the hazard DAG would never order this op against v's writers.
func droppedRead(w, u, v *Vector) error {
	var s opSpec
	wb := vecOp(&s, "ewise", w, nil)
	s.input(vecArg(u))
	return enqueue(s, func() error {
		_ = v.vdat() // want `kernel closure captures v, which the skeleton was not handed`
		wb.commit(u.vdat())
		return nil
	})
}

// computeCapturesUnhanded is the skeleton-era acceptance case: a compute
// closure reaching for a *Matrix the skeleton was not handed — b is
// described for the shape rule but never passed through input.
func computeCapturesUnhanded(c, a, b *Matrix) error {
	var s opSpec
	wb := matOp(&s, "mxm", c, nil)
	s.input(matArg(a, false))
	_ = matArg(b, true)
	return enqueue(s, func() error {
		_ = a.oriented(false)
		wb.commit(b.oriented(true)) // want `kernel closure captures b, which the skeleton was not handed`
		return nil
	})
}

// dupDroppedSource forgets the source in methodSpec.
func dupDroppedSource(w, v *Vector) error {
	return enqueue(methodSpec("dup", &w.obj, nil, false), func() error {
		w.data = v.vdat() // want `kernel closure captures v, which the skeleton was not handed`
		return nil
	})
}

// maskFolded hands the mask over as an ordinary data input, where the check
// step never tests it against the output's shape as a mask.
func maskFolded(w, u, mask *Vector) error {
	var s opSpec
	wb := vecOp(&s, "apply", w, nil)
	s.input(vecArg(u))
	s.input(vecArg(mask))
	return enqueue(s, func() error {
		_ = mask.vdat() // want `mask operand mask was handed to the skeleton as a data input`
		wb.commit(u.vdat())
		return nil
	})
}

// maskUndeclared filters through a mask the skeleton never hears about.
func maskUndeclared(w, u, mask *Vector) error {
	var s opSpec
	wb := vecOp(&s, "select", w, nil)
	s.input(vecArg(u))
	return enqueue(s, func() error {
		_ = mask.vdat() // want `mask operand mask is captured by the kernel closure but was never handed to the skeleton as the mask`
		wb.commit(u.vdat())
		return nil
	})
}

// eagerStoreRead dereferences the operand's store on the enqueue path: the
// closure would run against a snapshot taken before the DAG ordered this op.
func eagerStoreRead(w, u *Vector) error {
	var s opSpec
	wb := vecOp(&s, "apply", w, nil)
	s.input(vecArg(u))
	d := u.vdat() // want `store read u.vdat\(\) at enqueue time`
	return enqueue(s, func() error {
		wb.commit(d)
		return nil
	})
}

// eagerOriented is the same mistake through the descriptor-aware accessor.
func eagerOriented(c, a *Matrix) error {
	var s opSpec
	wb := matOp(&s, "apply", c, nil)
	s.input(matArg(a, true))
	d := a.oriented(true) // want `store read a.oriented\(\) at enqueue time`
	return enqueue(s, func() error {
		wb.commit(d)
		return nil
	})
}

// suppressedCapture shows the reviewed escape hatch for a provable false
// positive.
func suppressedCapture(w, u, stats *Vector) error {
	var s opSpec
	wb := vecOp(&s, "probe", w, nil)
	s.input(vecArg(u))
	return enqueue(s, func() error {
		//grblint:ignore footprint stats is engine-private and frozen before any op is enqueued
		_ = stats.vdat()
		wb.commit(u.vdat())
		return nil
	})
}
