package analysis

import (
	"go/token"
	"strings"
	"testing"
)

// TestSuppressionInventory pins the -report/-json contract: Run returns
// every //grblint:ignore directive it saw, with the file and line of the
// justification comment itself, the justification text, and a used flag
// that is true exactly when a finding was silenced by it.
func TestSuppressionInventory(t *testing.T) {
	fset := token.NewFileSet()
	pkg, err := loadTestdataPackage(fset, "footprint")
	if err != nil {
		t.Fatal(err)
	}
	_, sup, err := Run(fset, []*Package{pkg}, []*Analyzer{NewFootprint()})
	if err != nil {
		t.Fatal(err)
	}
	if len(sup) != 1 {
		t.Fatalf("want 1 suppression, got %d: %v", len(sup), sup)
	}
	s := sup[0]
	if !strings.HasSuffix(s.File, "a.go") || s.Line == 0 {
		t.Errorf("directive location not resolved: %s:%d", s.File, s.Line)
	}
	if s.Analyzer != "footprint" {
		t.Errorf("analyzer = %q, want footprint", s.Analyzer)
	}
	if !strings.Contains(s.Justification, "engine-private") {
		t.Errorf("justification text lost: %q", s.Justification)
	}
	if !s.Used {
		t.Errorf("directive silenced a finding but Used=false")
	}
}

// TestSuppressionStale verifies that a directive whose analyzer did not run
// (or whose finding no longer fires) is reported with Used=false — the
// signal the -report audit uses to flag rotten suppressions.
func TestSuppressionStale(t *testing.T) {
	fset := token.NewFileSet()
	pkg, err := loadTestdataPackage(fset, "footprint")
	if err != nil {
		t.Fatal(err)
	}
	// Run only hotalloc: the footprint directive in the package cannot be
	// honored, so it must surface as stale.
	_, sup, err := Run(fset, []*Package{pkg}, []*Analyzer{NewHotAlloc()})
	if err != nil {
		t.Fatal(err)
	}
	if len(sup) != 1 {
		t.Fatalf("want 1 suppression, got %d", len(sup))
	}
	if sup[0].Used {
		t.Errorf("directive could not have been honored but Used=true")
	}
}
