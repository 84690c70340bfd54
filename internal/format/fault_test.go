package format

import (
	"testing"

	"graphblas/internal/faults"
	"graphblas/internal/leakcheck"
	"graphblas/internal/sparse"
)

// TestGovernedBitmapAlloc: the dense-layout constructor routes through the
// allocation governor; with a tiny budget the conversion is denied as an
// OutOfMemory fault before any allocation happens, and the default budget
// admits it again.
func TestGovernedBitmapAlloc(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	prev := faults.SetAllocBudget(64)
	t.Cleanup(func() { faults.SetAllocBudget(prev); faults.Disable() })
	func() {
		defer func() {
			f, ok := recover().(*faults.Fault)
			if !ok || f.Kind != faults.OOM || f.Site != "format.alloc.bitmap" {
				t.Fatalf("recovered %v, want bitmap OOM fault", f)
			}
		}()
		NewBitmap[float64](64, 64)
		t.Fatal("oversized bitmap allocation not denied")
	}()
	faults.SetAllocBudget(0)
	if b := NewBitmap[float64](64, 64); b == nil || len(b.Val) != 64*64 {
		t.Fatal("bitmap allocation denied under default budget")
	}
}

// TestKernelFaultSite: the dense ⟨+,×⟩ product carries a deterministic
// injection site at its entry, before any parallel work.
func TestKernelFaultSite(t *testing.T) {
	leakcheck.AssertQuiescent(t)
	t.Cleanup(faults.Disable)
	a, _ := sparse.BuildCSR(8, 8, []int{0, 2}, []int{2, 3}, []float64{1, 5}, nil)
	faults.Configure(1, faults.Rule{Site: "format.kernel.bitmap.mxm.fast", Kind: faults.KernelErr})
	defer func() {
		f, ok := recover().(*faults.Fault)
		if !ok || f.Kind != faults.KernelErr {
			t.Fatalf("recovered %v, want KernelErr fault", f)
		}
	}()
	TryMxMPlusTimes(a, a)
	t.Fatal("kernel site did not fire")
}
