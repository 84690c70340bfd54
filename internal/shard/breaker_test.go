package shard

import (
	"errors"
	"testing"
	"time"
)

func TestBreakerAutomaton(t *testing.T) {
	b := NewBreaker(2, time.Minute)
	clock := time.Unix(0, 0)
	b.now = func() time.Time { return clock }

	if !b.Allow() || b.State() != "closed" {
		t.Fatal("new breaker must be closed")
	}
	boom := errors.New("boom")
	b.Record(boom)
	if !b.Allow() {
		t.Fatal("one failure under threshold must not trip")
	}
	b.Record(boom)
	if b.Allow() || b.State() != "open" {
		t.Fatal("threshold failures must open the breaker")
	}
	// Cooldown elapses: one probe allowed (half-open); failure re-opens.
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() || b.State() != "half-open" {
		t.Fatal("cooldown must allow a probe")
	}
	b.Record(boom)
	if b.Allow() {
		t.Fatal("failed probe must re-open immediately")
	}
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("second cooldown must allow another probe")
	}
	b.Record(nil)
	if !b.Allow() || b.State() != "closed" {
		t.Fatal("successful probe must close the breaker")
	}
}
