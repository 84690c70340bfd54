package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors of the admission layer. Handlers map ErrShed and
// ErrDraining to 503 with a Retry-After header.
var (
	// ErrShed: the admission queue is over its watermark; the request was
	// rejected immediately rather than left to time out in line.
	ErrShed = errors.New("serve: load shed, admission queue full")
	// ErrDraining: the server is shutting down and admits no new work.
	ErrDraining = errors.New("serve: draining, no new requests admitted")
)

// Admission is the server's combined concurrency limiter and load shedder: a
// counting semaphore bounding simultaneously executing requests, plus a
// waiting-line watermark that rejects new arrivals outright once the line is
// deep enough that they would only time out waiting. Shedding early keeps
// latency bounded for the requests that are admitted — the classic
// alternative, an unbounded queue, converts overload into uniformly missed
// deadlines.
type Admission struct {
	slots     chan struct{} // buffered; a held token = one executing request
	draining  chan struct{} // closed by Close; gates new admissions
	drainOnce sync.Once
	maxQueue  int64
	waiting   atomic.Int64
	inflight  atomic.Int64
}

// NewAdmission builds an admission gate allowing maxConcurrent simultaneous
// requests and at most maxQueue waiters behind them.
func NewAdmission(maxConcurrent, maxQueue int) *Admission {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Admission{
		slots:    make(chan struct{}, maxConcurrent),
		draining: make(chan struct{}),
		maxQueue: int64(maxQueue),
	}
}

// Acquire claims an execution slot, waiting in line if all are busy. It
// returns a release closure (idempotent) on success; ErrShed when the line is
// already at its watermark; ErrDraining when the server is shutting down; or
// ctx.Err() when the caller's deadline expires while queued.
func (a *Admission) Acquire(ctx context.Context) (func(), error) {
	select {
	case <-a.draining:
		Shed.Inc()
		return nil, ErrDraining
	default:
	}
	// Fast path: a free slot admits without queueing.
	select {
	case a.slots <- struct{}{}:
		return a.admitted(), nil
	default:
	}
	// All slots busy: stand in line, unless the line is already at its
	// watermark — then shed immediately.
	if w := a.waiting.Add(1); w > a.maxQueue {
		a.waiting.Add(-1)
		Shed.Inc()
		return nil, ErrShed
	}
	AdmissionQueue.Set(a.waiting.Load())
	defer func() {
		a.waiting.Add(-1)
		AdmissionQueue.Set(a.waiting.Load())
	}()
	select {
	case a.slots <- struct{}{}:
		return a.admitted(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-a.draining:
		Shed.Inc()
		return nil, ErrDraining
	}
}

// admitted finalizes a successful slot claim and returns its idempotent
// release closure.
func (a *Admission) admitted() func() {
	Inflight.Set(a.inflight.Add(1))
	var once sync.Once
	return func() {
		once.Do(func() {
			<-a.slots
			Inflight.Set(a.inflight.Add(-1))
		})
	}
}

// QueueDepth reports how many requests are currently waiting for a slot.
func (a *Admission) QueueDepth() int { return int(a.waiting.Load()) }

// InflightCount reports how many requests currently hold a slot.
func (a *Admission) InflightCount() int { return int(a.inflight.Load()) }

// Pressure reports the waiting line as a fraction of the shed watermark —
// the signal the degradation ladder consults to cap query effort under load.
func (a *Admission) Pressure() float64 {
	if a.maxQueue == 0 {
		return 0
	}
	return float64(a.waiting.Load()) / float64(a.maxQueue)
}

// Close stops admitting new requests; in-flight ones keep their slots.
func (a *Admission) Close() { a.drainOnce.Do(func() { close(a.draining) }) }

// Drain blocks until every admitted request has released its slot or ctx
// expires. Call Close first; otherwise new arrivals can keep the gate busy
// forever.
func (a *Admission) Drain(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if a.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}
