package core

import (
	"math"
	"math/rand"
	"testing"

	"graphblas/internal/sparse"
)

// TestMaskedScalarFillMatchesFullZ: AssignVectorScalar over every position
// without an accumulator under a mask that is not complemented — BFS's
// levels⟨frontier⟩ = depth — builds Z at the mask's true positions only
// (sparse.FillVec). Its result is the store the full Z gives, bit for bit:
// the n-entry fill merged into the same prior content under the same
// resolved mask. Both execution modes, with and without replace, under a
// value mask with false entries, an all-false one, an empty one and an
// all-true one; −0 as the scalar, so a lost sign shows.
func TestMaskedScalarFillMatchesFullZ(t *testing.T) {
	const n = 64
	x := math.Copysign(0, -1)
	masks := map[string][2]float64{"values": {0.6, 0.5}, "all-false": {0.6, 0}, "empty": {0, 0}, "all-true": {1, 1}}
	for _, mode := range []Mode{Blocking, NonBlocking} {
		for _, replace := range []bool{false, true} {
			for name, p := range masks {
				withMode(t, mode, func() {
					rng := rand.New(rand.NewSource(11))
					w, _ := randVecModel(t, rng, n, 0.5)
					mask, _, _ := randVecMask(t, rng, n, p[0], p[1])
					if err := Wait(); err != nil {
						t.Fatal(err)
					}
					c := w.vdat()
					vm := resolveVecMask(mask, false)
					want := sparse.MaskMergeVec(c, sparse.AssignScalarExpandVec(c, x, nil, nil, sparse.OpNone), vm, replace)
					releaseVecMask(vm)
					wantIdx, wantVal := want.Tuples()

					desc := Desc()
					if replace {
						desc = desc.ReplaceOutput()
					}
					if err := AssignVectorScalar(w, mask, NoAccum[float64](), x, All, desc); err != nil {
						t.Fatal(err)
					}
					idx, val, err := w.ExtractTuples()
					if err != nil {
						t.Fatal(err)
					}
					same := len(idx) == len(wantIdx)
					for k := 0; same && k < len(idx); k++ {
						same = idx[k] == wantIdx[k] && math.Float64bits(val[k]) == math.Float64bits(wantVal[k])
					}
					if !same {
						t.Fatalf("mode %v replace %v mask %s: got %v %v, want %v %v", mode, replace, name, idx, val, wantIdx, wantVal)
					}
				})
			}
		}
	}
}
