package faults

import "testing"

func cleanup(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		Disable()
		SetAllocBudget(0)
	})
}

// collect records which of n calls to Check(site) inject.
func collect(site string, n int) []bool {
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = Check(site) != nil
	}
	return out
}

func TestRuleGates(t *testing.T) {
	cleanup(t)
	Configure(1, Rule{Site: "MxM", Kind: OOM, After: 2, Every: 2, Times: 2})
	got := collect("MxM", 8)
	// Calls 1..2 skipped by After; eligible calls are 3,5,7,... with Every=2;
	// Times=2 stops after two injections.
	want := []bool{false, false, true, false, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: injected=%v want %v (%v)", i+1, got[i], want[i], got)
		}
	}
	if InjectedCount() != 2 {
		t.Fatalf("InjectedCount %d want 2", InjectedCount())
	}
}

func TestSiteMatching(t *testing.T) {
	cleanup(t)
	Configure(1, Rule{Site: "format.*", Kind: KernelErr})
	if Check("MxM") != nil {
		t.Fatal("glob matched unrelated site")
	}
	if f := Check("format.kernel.bitmap.mxv"); f == nil || f.Kind != KernelErr {
		t.Fatalf("glob missed prefixed site: %v", f)
	}
	Configure(1, Rule{Site: "", Kind: OOM})
	if Check("anything") == nil {
		t.Fatal("empty site should match every site")
	}
}

func TestDeterministicReplay(t *testing.T) {
	cleanup(t)
	sites := []string{"a", "b", "a", "c", "b", "a", "a", "c"}
	run := func() []bool {
		Reset()
		out := make([]bool, len(sites))
		for i, s := range sites {
			out[i] = Check(s) != nil
		}
		return out
	}
	Configure(42, Rule{Site: "a", Kind: OOM, Prob: 0.5}, Rule{Site: "c", Kind: KernelErr, Every: 2})
	first := run()
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at call %d: %v vs %v", i, first, second)
		}
	}
	any := false
	for _, b := range first {
		any = any || b
	}
	if !any {
		t.Fatalf("schedule injected nothing: %v", first)
	}
}

func TestPanicKindPanics(t *testing.T) {
	cleanup(t)
	Configure(1, Rule{Site: "op", Kind: PanicFault})
	defer func() {
		r := recover()
		f, ok := r.(*Fault)
		if !ok || f.Kind != PanicFault {
			t.Fatalf("recovered %v, want *Fault{PanicFault}", r)
		}
	}()
	Check("op")
	t.Fatal("Check did not panic for PanicFault kind")
}

func TestStepPanicsWithFault(t *testing.T) {
	cleanup(t)
	Configure(1, Rule{Site: "k", Kind: OOM})
	defer func() {
		f, ok := recover().(*Fault)
		if !ok || f.Kind != OOM || f.Site != "k" {
			t.Fatalf("recovered %v", f)
		}
	}()
	Step("k")
	t.Fatal("Step did not panic")
}

func TestGovernAllocBudget(t *testing.T) {
	cleanup(t)
	Configure(1) // no rules: clears plan and counters
	SetAllocBudget(1024)
	GovernAlloc("small", 1024) // at the cap: allowed
	func() {
		defer func() {
			f, ok := recover().(*Fault)
			if !ok || f.Kind != OOM || f.Bytes != 1025 {
				t.Fatalf("recovered %v", f)
			}
		}()
		GovernAlloc("big", 1025)
		t.Fatal("oversized allocation not denied")
	}()
	if InjectedCount() != 1 {
		t.Fatalf("governor denial not counted: %d", InjectedCount())
	}
	SetAllocBudget(0)
	GovernAlloc("big", 1025) // default budget restored: allowed
}

func TestDisabledIsFree(t *testing.T) {
	cleanup(t)
	Disable()
	if Enabled() {
		t.Fatal("Enabled after Disable")
	}
	if Check("MxM") != nil {
		t.Fatal("Check injected while disabled")
	}
	Step("site") // must not panic
}
