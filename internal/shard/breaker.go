package shard

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a circuit breaker guarding an operation that can fail
// persistently — here, delta-overlay compaction. Consecutive failures up to
// a threshold trip it open; while open, callers skip the operation entirely
// (the serving layer degrades to the last pinned epoch instead of queueing
// doomed work behind a broken writer). After a cooldown one probe is let
// through: success closes the breaker, failure re-opens it for another
// cooldown.
type Breaker struct {
	mu        sync.Mutex
	state     breakerState
	failures  int
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	now       func() time.Time // injectable clock for deterministic tests
}

// NewBreaker returns a closed breaker tripping after threshold consecutive
// failures and probing again after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether the guarded operation may run now. In the open state
// it returns false until the cooldown elapses, then transitions to half-open
// and lets a probe through.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed, breakerHalfOpen:
		return true
	default: // open
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	}
}

// Record feeds the outcome of one guarded run back into the automaton.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.state = breakerClosed
		b.failures = 0
		return
	}
	b.failures++
	// A half-open probe failing — or the threshold filling — opens the
	// breaker and restarts the cooldown.
	if b.state == breakerHalfOpen || b.failures >= b.threshold {
		if b.state != breakerOpen {
			BreakerOpens.Inc()
		}
		b.state = breakerOpen
		b.openedAt = b.now()
		b.failures = 0
	}
}

// State names the current state ("closed", "open", "half-open") for health
// reporting.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
