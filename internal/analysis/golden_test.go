package analysis

import "testing"

// The golden suites: each analyzer runs over its testdata/src package and
// must produce exactly the findings annotated with // want — including the
// testdata reproductions of the PR 4 bugs (the swallowed reduce flag, the
// Diag ok-flag discard, the unlocked Resize metadata write).

func TestSwallowedErrGolden(t *testing.T) {
	RunGolden(t, "swallowederr", NewSwallowedErr())
}

func TestLockedMetaGolden(t *testing.T) {
	RunGolden(t, "lockedmeta", NewLockedMeta())
}

func TestFaultSiteGolden(t *testing.T) {
	RunGolden(t, "faultsite", NewFaultSite())
}

func TestSpanLifeGolden(t *testing.T) {
	RunGolden(t, "spanlife", NewSpanLife())
}

func TestAtomicMixGolden(t *testing.T) {
	RunGolden(t, "atomicmix", NewAtomicMix())
}

func TestCtxFlowGolden(t *testing.T) {
	RunGolden(t, "ctxflow", NewCtxFlow())
}

func TestFootprintGolden(t *testing.T) {
	RunGolden(t, "footprint", NewFootprint())
}

// TestFootprintSkeletonGolden: the same analyzer over a package whose sites
// are sound but whose enqueue and opSpec.footprint drop operands.
func TestFootprintSkeletonGolden(t *testing.T) {
	RunGolden(t, "footprintskel", NewFootprint())
}

func TestHotAllocGolden(t *testing.T) {
	RunGolden(t, "hotalloc", NewHotAlloc())
}

func TestIdxShareGolden(t *testing.T) {
	RunGolden(t, "idxshare", NewIdxShare())
}
