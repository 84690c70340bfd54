// Package footprintskel holds the golden cases for the skeleton half of the
// footprint analyzer: the operation sites below are all well-formed, and the
// findings are in the derivation itself — an enqueue that does not take the
// pending operation's reads from opSpec.footprint, and a footprint that
// covers neither every input nor the mask.
package footprintskel

type obj struct{ id uint64 }

type store struct{ vals []float64 }

// Vector mirrors core.Vector.
type Vector struct {
	obj  obj
	data *store
}

func (v *Vector) vdat() *store { return v.data }

type operand struct{ o *obj }

func vecArg(v *Vector) operand {
	if v == nil {
		return operand{}
	}
	return operand{o: &v.obj}
}

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

// footprint forgets the second input and never consults the mask.
func (s *opSpec) footprint() []*obj { // want `opSpec.footprint does not cover every input handed to the skeleton` `opSpec.footprint does not pass the mask through maskReads`
	return []*obj{s.in[0]}
}

func maskReads(reads []*obj, mask *obj) []*obj {
	if mask != nil {
		reads = append(reads, mask)
	}
	return reads
}

type pendingOp struct {
	out   *obj
	reads []*obj
	run   func() error
}

// enqueue rebuilds a read set of its own instead of asking the spec.
func enqueue(s opSpec, run func() error) error { // want `enqueue does not take the pending operation's reads from opSpec.footprint\(\)`
	op := &pendingOp{out: s.out, reads: maskReads(nil, s.mask), run: run}
	return op.run()
}

// applyGood is a well-formed site; nothing is reported here.
func applyGood(w, u, mask *Vector) error {
	var s opSpec
	s.begin("apply", vecArg(w), vecArg(mask))
	s.input(vecArg(u))
	return enqueue(s, func() error {
		w.data = u.vdat()
		return nil
	})
}
