// Package fusecap holds the golden cases for the fusecap analyzer: every
// capability declaration attached to a spec's fuse field must name a fusion
// source drawn from the inputs the skeleton was handed, must withhold its consume callback whenever the
// mask aliases that source (the PR 9 bug class), and must never read the
// source's committed store from inside the consume path.
package fusecap

type obj struct{ id uint64 }

type store struct{ vals []float64 }

// Vector mirrors core.Vector.
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

// fuseInfo mirrors core.fuseInfo.
type fuseInfo struct {
	producer any
	srcID    uint64
	consume  func(src any) (func() error, any, bool)
}

// operand and opSpec mirror the engine's operation skeleton.
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
	fuse *fuseInfo
}

func (s *opSpec) input(a operand) {
	s.in[s.nin] = a.o
	s.nin++
}

func (s *opSpec) footprint() []*obj {
	return maskReads(append([]*obj(nil), s.in[:s.nin]...), s.mask)
}

func vecOp(s *opSpec, name string, w, mask *Vector) {
	s.name, s.out, s.mask = name, vecArg(w).o, vecArg(mask).o
}

type pendingOp struct {
	out   *obj
	reads []*obj
	fuse  *fuseInfo
	run   func() error
}

func enqueue(s opSpec, run func() error) error {
	op := &pendingOp{out: s.out, reads: s.footprint(), fuse: s.fuse, run: run}
	return op.run()
}

func maskReads(reads []*obj, mask *obj) []*obj {
	if mask != nil {
		reads = append(reads, mask)
	}
	return reads
}

// applySource is the producer payload shape.
type applySource struct{ u *Vector }

// guardedGood is the post-PR 9 ApplyV shape: consume withheld when the mask
// aliases the source, source handed over as an input, consume streams the payload.
func guardedGood(w, u, mask *Vector) error {
	var s opSpec
	vecOp(&s, "op", w, mask)
	s.input(vecArg(u))
	fi := &fuseInfo{srcID: u.obj.id}
	if mask == nil {
		fi.producer = applySource{u: u}
	}
	if mask == nil || mask.obj.id != u.obj.id {
		fi.consume = func(src any) (func() error, any, bool) {
			s, ok := src.(applySource)
			if !ok {
				return nil, nil, false
			}
			return func() error {
				_ = s
				w.data = nil
				return nil
			}, nil, true
		}
	}
	s.fuse = fi
	return enqueue(s, func() error {
		_ = u.vdat()
		return nil
	})
}

// assignShapeGood folds the veto into the fi construction guard itself, the
// AssignVector idiom: fi only exists when the mask cannot alias the source.
func assignShapeGood(w, u, mask *Vector, indices []int) error {
	var s opSpec
	vecOp(&s, "op", w, mask)
	s.input(vecArg(u))
	if indices == nil && (mask == nil || mask.obj.id != u.obj.id) {
		fi := &fuseInfo{srcID: u.obj.id}
		fi.consume = func(src any) (func() error, any, bool) {
			s, ok := src.(applySource)
			if !ok {
				return nil, nil, false
			}
			_ = s
			return func() error { return nil }, nil, true
		}
		s.fuse = fi
	}
	return enqueue(s, func() error {
		_ = u.vdat()
		return nil
	})
}

// nilMaskOnlyGood attaches consume only on the maskless path; no alias is
// possible there.
func nilMaskOnlyGood(w, u, mask *Vector) error {
	var s opSpec
	vecOp(&s, "op", w, mask)
	s.input(vecArg(u))
	fi := &fuseInfo{srcID: u.obj.id}
	if mask == nil {
		fi.consume = func(src any) (func() error, any, bool) {
			return func() error { return nil }, nil, true
		}
	}
	s.fuse = fi
	return enqueue(s, func() error {
		_ = u.vdat()
		return nil
	})
}

// unguardedConsume is the PR 9 must-flag case: the capability is attached
// unconditionally, so MxV(w, u, A, u) can fuse and resolve the mask from u's
// stale committed store.
func unguardedConsume(w, u, mask *Vector) error {
	var s opSpec
	vecOp(&s, "op", w, mask)
	s.input(vecArg(u))
	fi := &fuseInfo{srcID: u.obj.id}
	fi.consume = func(src any) (func() error, any, bool) { // want `consume capability is not vetoed when mask aliases the fusion source u`
		return func() error { return nil }, nil, true
	}
	s.fuse = fi
	return enqueue(s, func() error {
		_ = u.vdat()
		if mask != nil {
			_ = mask.vdat()
		}
		return nil
	})
}

// invertedGuard fuses exactly when the mask aliases the source — the
// comparison direction is wrong, so the guard is not protective.
func invertedGuard(w, u, mask *Vector) error {
	var s opSpec
	vecOp(&s, "op", w, mask)
	s.input(vecArg(u))
	fi := &fuseInfo{srcID: u.obj.id}
	if mask == nil || mask.obj.id == u.obj.id {
		fi.consume = func(src any) (func() error, any, bool) { // want `consume capability is not vetoed when mask aliases the fusion source u`
			return func() error { return nil }, nil, true
		}
	}
	s.fuse = fi
	return enqueue(s, func() error {
		_ = u.vdat()
		return nil
	})
}

// srcNotInReads declares a fusion source the skeleton was never handed:
// FuseLegal would elide a store the hazard DAG never proved dead.
func srcNotInReads(w, u, v *Vector) error {
	var s opSpec
	vecOp(&s, "ewise", w, nil)
	s.input(vecArg(u))
	fi := &fuseInfo{srcID: v.obj.id} // want `fusion source v is not among the inputs the skeleton was handed`
	fi.consume = func(src any) (func() error, any, bool) {
		return func() error { return nil }, nil, true
	}
	s.fuse = fi
	return enqueue(s, func() error {
		_ = u.vdat()
		return nil
	})
}

// staleSourceRead streams the payload but still dereferences the source
// inside the fused run: when fused, u's committed store is stale.
func staleSourceRead(w, u *Vector) error {
	var s opSpec
	vecOp(&s, "apply", w, nil)
	s.input(vecArg(u))
	fi := &fuseInfo{srcID: u.obj.id}
	fi.consume = func(src any) (func() error, any, bool) {
		s, ok := src.(applySource)
		if !ok {
			return nil, nil, false
		}
		_ = s
		return func() error {
			_ = u.vdat() // want `fused consumer reads fusion source u directly`
			return nil
		}, nil, true
	}
	s.fuse = fi
	return enqueue(s, func() error {
		_ = u.vdat()
		return nil
	})
}

// suppressedVeto shows the reviewed escape hatch.
func suppressedVeto(w, u, mask *Vector) error {
	var s opSpec
	vecOp(&s, "op", w, mask)
	s.input(vecArg(u))
	fi := &fuseInfo{srcID: u.obj.id}
	//grblint:ignore fusecap this op rejects aliased masks in validation before enqueue
	fi.consume = func(src any) (func() error, any, bool) {
		return func() error { return nil }, nil, true
	}
	s.fuse = fi
	return enqueue(s, func() error {
		_ = u.vdat()
		return nil
	})
}
