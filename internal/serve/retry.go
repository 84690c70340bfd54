package serve

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"graphblas/internal/shard"
)

// Retrier re-runs transient-failing work (shard.IsTransient, the taxonomy the
// store's own writer uses) with jittered exponential backoff. The jitter
// source is seeded, so a load test replays the same backoff schedule run to
// run.
type Retrier struct {
	Attempts int           // total tries, including the first
	Base     time.Duration // first backoff; doubles per retry
	Max      time.Duration // backoff ceiling

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetrier builds a Retrier drawing jitter from the given seed.
func NewRetrier(seed uint64, attempts int, base, max time.Duration) *Retrier {
	if attempts < 1 {
		attempts = 1
	}
	return &Retrier{
		Attempts: attempts,
		Base:     base,
		Max:      max,
		rng:      rand.New(rand.NewSource(int64(seed))),
	}
}

// backoff draws the sleep before retry number n (1-based): the exponential
// step, halved plus a uniform random half ("equal jitter"), so synchronized
// retriers decorrelate without ever sleeping less than half the step.
func (r *Retrier) backoff(n int) time.Duration {
	d := r.Base << uint(n-1)
	if d > r.Max || d <= 0 {
		d = r.Max
	}
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d)/2 + 1))
	r.mu.Unlock()
	return d/2 + j
}

// Do runs f until it succeeds, fails permanently, or the attempt budget or
// ctx is exhausted. It returns the number of attempts made and the last
// error. Work canceled because the caller's own deadline expired is not
// retried — there is no budget left to retry into.
func (r *Retrier) Do(ctx context.Context, f func(context.Context) error) (int, error) {
	var err error
	for attempt := 1; ; attempt++ {
		err = f(ctx)
		if err == nil || !shard.IsTransient(err) || attempt >= r.Attempts {
			return attempt, err
		}
		if ctx != nil && ctx.Err() != nil {
			return attempt, err
		}
		Retried.Inc()
		select {
		case <-time.After(r.backoff(attempt)):
		case <-ctxDone(ctx):
			return attempt, err
		}
	}
}

// ctxDone tolerates a nil context (background work with no deadline).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}
