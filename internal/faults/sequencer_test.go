package faults

import (
	"sync"
	"testing"
)

// TestSequencerOrdersDraws runs positions concurrently and checks Wait/
// Release enforce ascending order of the gated sections.
func TestSequencerOrdersDraws(t *testing.T) {
	const n = 32
	s := NewSequencer(n)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	// Launch in reverse so a FIFO-ish scheduler would tend to run them
	// backwards if the gate did not reorder.
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Wait(i)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			s.Release(i)
		}(i)
	}
	wg.Wait()
	for k, got := range order {
		if got != k {
			t.Fatalf("gated sections ran in order %v, want ascending", order)
		}
	}
}

// TestSequencerReleaseIdempotent verifies double release is harmless and
// out-of-order releases unblock a waiter only once every earlier position
// is done.
func TestSequencerReleaseIdempotent(t *testing.T) {
	s := NewSequencer(3)
	s.Release(1) // out of order: position 0 still pending
	s.Release(1) // idempotent
	done := make(chan struct{})
	go func() {
		s.Wait(2)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Wait(2) returned before position 0 released")
	default:
	}
	s.Release(0)
	<-done // must unblock now: 0 and 1 are both done
	s.Release(2)
	s.Release(2)
}

// TestSequencerNil verifies the nil Sequencer is inert, the contract the
// executor relies on when no fault plan is installed.
func TestSequencerNil(t *testing.T) {
	var s *Sequencer
	s.Wait(5)
	s.Release(5)
}

// TestPlanCoversKernelSites checks the classification that decides whether
// a DAG flush must serialize whole op bodies.
func TestPlanCoversKernelSites(t *testing.T) {
	cleanup(t)
	cases := []struct {
		site string
		want bool
	}{
		{"MxM", false},                   // exact op name: op-level draw only
		{"Transpose", false},             // exact op name
		{"format.kernel.csr.pull", true}, // kernel-internal dotted site
		{"format.*", true},               // glob can reach kernel sites
		{"MxM*", true},                   // glob, conservatively kernel-capable
		{"", true},                       // matches every site
		{"*", true},                      // matches every site
	}
	for _, tc := range cases {
		Configure(1, Rule{Site: tc.site, Kind: KernelErr})
		if got := PlanCoversKernelSites(); got != tc.want {
			t.Errorf("PlanCoversKernelSites() with site %q = %v, want %v", tc.site, got, tc.want)
		}
	}
	Disable()
	if PlanCoversKernelSites() {
		t.Error("PlanCoversKernelSites() = true with no plan installed")
	}
}
