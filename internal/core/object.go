package core

// obj is the non-generic base embedded in every opaque GraphBLAS object. It
// carries the identity used by the nonblocking engine's dependence tracking
// and the invalid-object state of the error model (Section V).
type obj struct {
	id          uint64
	err         error
	initialized bool
	// ctx binds the object to the execution context that owns it: nil means
	// the package-level global context (the paper's one-per-program rule);
	// non-nil means an embedded Instance (the sharding extension). Operations
	// route through their output object's context, so instance-bound work
	// never serializes against the global queue.
	ctx *context
	// tx is the object's transactional store, nil for objects with no
	// store. The executor takes a snapshot before each kernel that writes
	// the object and settles after it, so an output object is never
	// observed half-written: it holds its prior committed contents (invalid
	// but restorable, Section V) or the new result — and a superseded
	// store, which nothing reaches once the new one is in, gives its arrays
	// back to the pool. Registered by the typed constructors.
	tx transactional
}

// transactional is an object whose committed store an operation writing it
// can roll back. snapshot captures the committed store (pointers, not
// payloads — stores are immutable once committed) into the object's
// rollback slot; settle(false) restores it, settle(true) releases what the
// new store superseded, and either empties the slot. One slot is enough: an
// object has one writer at a time, since the hazard DAG orders every two
// operations writing it (WAW) and a blocking-mode writer owns its output.
// The slot lives in the object, so the executor allocates nothing to take
// or settle a snapshot.
type transactional interface {
	snapshot()
	settle(committed bool)
}

// engine returns the execution context the object is bound to.
func (o *obj) engine() *context {
	if o.ctx == nil {
		return &global
	}
	return o.ctx
}

// initObj stamps a fresh identity.
func (o *obj) initObj() {
	o.id = nextID()
	o.initialized = true
}

// objOK reports the standard per-argument API checks: the handle is non-nil
// and the object initialized.
func objOK(o *obj, op, arg string) error {
	if o == nil {
		return errf(UninitializedObject, op, "%s is nil", arg)
	}
	if !o.initialized {
		return errf(UninitializedObject, op, "%s has not been initialized (freed?)", arg)
	}
	return nil
}

// invalidMark snapshots the object's invalid-state error under the engine
// lock and converts it to the standard API error. API methods consult the
// mark after force has returned — and released the lock — so a flush started
// by another goroutine may be rewriting o.err concurrently; the lock
// round-trip orders this read against that write.
func invalidMark(o *obj, op string) error {
	c := o.engine()
	c.mu.Lock()
	err := o.err
	c.mu.Unlock()
	if err != nil {
		return errf(InvalidObject, op, "%v", err)
	}
	return nil
}

// Wait completes all pending computations involving the object (the
// object-scoped GrB_wait of spec 1.3+). This engine tracks dependencies at
// sequence granularity, so it conservatively completes the whole pending
// sequence — a conforming implementation choice.
func (m *Matrix[D]) Wait() error {
	if err := objOK(&m.obj, "Matrix.Wait", "m"); err != nil {
		return err
	}
	if err := m.obj.engine().force("Matrix.Wait"); err != nil {
		return err
	}
	return invalidMark(&m.obj, "Matrix.Wait")
}

// Wait completes all pending computations involving the vector; see
// Matrix.Wait.
func (v *Vector[D]) Wait() error {
	if err := objOK(&v.obj, "Vector.Wait", "v"); err != nil {
		return err
	}
	if err := v.obj.engine().force("Vector.Wait"); err != nil {
		return err
	}
	return invalidMark(&v.obj, "Vector.Wait")
}

// revalidate is the shared body of Matrix.Revalidate / Vector.Revalidate: it
// quiesces the pending sequence, then clears the object's invalid mark.
func revalidate(o *obj, op, arg string) error {
	if err := objOK(o, op, arg); err != nil {
		return err
	}
	// Complete the pending sequence first so no queued operation re-marks the
	// object after the clear. The flush's own error, if any, is exactly the
	// failure being acknowledged, so it is not propagated — unless the
	// context itself is unusable.
	c := o.engine()
	if err := c.force(op); InfoOf(err) == UninitializedContext {
		return err
	}
	c.mu.Lock()
	o.err = nil
	c.mu.Unlock()
	return nil
}

// Revalidate accepts an invalid-but-restorable object's rolled-back committed
// content as current, clearing the invalid mark without the full overwrite
// the error model otherwise demands. The transactional executor guarantees
// that a failed operation rolls its output back to the prior committed store
// and that an abandoned (Canceled) operation never ran at all — either way
// the content is a consistent committed state; what the invalid mark records
// is that a *requested* mutation did not happen. A caller that can
// re-establish its own invariants — e.g. a streaming writer whose update
// batches are last-wins idempotent and can simply be re-applied — may accept
// the rolled-back state and continue. This is the recovery path a concurrent
// serving layer needs when some other request's deadline abandons a shared
// flush: without it, one expired deadline would poison the writer's matrix
// permanently, since merge-mode absorbs never full-overwrite.
func (m *Matrix[D]) Revalidate() error {
	return revalidate(&m.obj, "Matrix.Revalidate", "m")
}

// Revalidate clears the vector's invalid mark after the caller has
// re-established its invariants; see Matrix.Revalidate.
func (v *Vector[D]) Revalidate() error {
	return revalidate(&v.obj, "Vector.Revalidate", "v")
}
