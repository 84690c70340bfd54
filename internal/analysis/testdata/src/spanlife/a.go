// Package spanlife holds the golden cases for the spanlife analyzer: every
// span opened with obs.Begin must reach obs.Emit or an ownership handoff on
// every return path out of the opening function.
package spanlife

import (
	"errors"
	"obs"
)

// queued stands in for the engine's pending-op record that carries the span
// to the flush worker.
type queued struct {
	sp *obs.Span
}

// handOff is the engine's handoff shape: ownership of the span moves to the
// queue.
func handOff(sp *obs.Span, run func() error) error {
	defer obs.Emit(sp)
	return run()
}

func validate(n int) error {
	if n < 0 {
		return errors.New("negative")
	}
	return nil
}

// deferEmitGood is the runScalarReduce shape after PR 4: the deferred Emit
// pins delivery for every return, including the early error return.
func deferEmitGood(n int) error {
	sp := obs.Begin("reduce")
	defer obs.Emit(sp)
	if err := validate(n); err != nil {
		sp.Finish(1, err)
		return err
	}
	sp.Finish(0, nil)
	return nil
}

// handoffGood transfers ownership to the queue; the opening function owes
// nothing further.
func handoffGood(n int) error {
	sp := obs.Begin("mxm")
	return handOff(sp, func() error { return validate(n) })
}

// storeGood parks the span in a record — ownership moved to the record.
func storeGood() *queued {
	sp := obs.Begin("store")
	return &queued{sp: sp}
}

// leakyEarlyReturn is the bug class: the error path returns before the span
// is emitted, so SpanOutcomes undercounts failed reduces and the latency
// histogram only ever sees successes.
func leakyEarlyReturn(n int) error {
	sp := obs.Begin("reduce")
	if err := validate(n); err != nil {
		return err // want `span from obs.Begin at line \d+ may leak`
	}
	sp.Finish(0, nil)
	obs.Emit(sp)
	return nil
}

// leakyFallthrough stages the span but never delivers it at all.
func leakyFallthrough() error {
	sp := obs.Begin("diag")
	sp.MarkScheduled()
	return nil // want `span from obs.Begin at line \d+ may leak`
}

// discarded never even binds the span.
func discarded() {
	obs.Begin("lost") // want `span from obs.Begin is discarded`
}

// bothBranchesGood retires the span in each arm, so the merge after the if
// is retired too.
func bothBranchesGood(fast bool) error {
	sp := obs.Begin("mxv")
	if fast {
		obs.Emit(sp)
	} else {
		obs.Emit(sp)
	}
	return nil
}

// oneBranchBad retires the span only on the fast path.
func oneBranchBad(fast bool) error {
	sp := obs.Begin("mxv")
	if fast {
		obs.Emit(sp)
	}
	return nil // want `span from obs.Begin at line \d+ may leak`
}

// suppressedLeak shows the reviewed escape hatch.
func suppressedLeak() error {
	sp := obs.Begin("probe")
	sp.MarkKernel()
	//grblint:ignore spanlife probe spans are sampled; the tracer reclaims unemitted probes
	return nil
}
