package format

import (
	"testing"

	"graphblas/internal/sparse"
)

// FuzzBitmapBuilder drives the bitmap builder the dense product converts B
// with (BitmapFromCSR) from raw bytes: each triple sets or removes one cell
// of a plain map, the map's content is built as a CSR matrix and converted,
// and the bitmap must agree with the map cell for cell — presence bits and
// values — then round-trip through CSR and the hypersparse layout with
// exactly the built content. The element count and the word/bit indexing
// of cells near the 64-column boundary are the bug surfaces this target
// exercises.
func FuzzBitmapBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 63, 2, 64, 3, 65, 4})
	f.Add([]byte{255, 255, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nr, nc = 5, 70 // 70 columns spans a word boundary
		mirror := map[[2]int]int{}
		for k := 0; k+2 < len(data); k += 3 {
			cell := [2]int{int(data[k]) % nr, int(data[k+1]) % nc}
			if op := data[k+2]; op%4 == 0 {
				delete(mirror, cell)
			} else {
				mirror[cell] = int(op)
			}
		}
		var is, js, vs []int
		for cell, v := range mirror {
			is, js, vs = append(is, cell[0]), append(js, cell[1]), append(vs, v)
		}
		m, ok := sparse.BuildCSR(nr, nc, is, js, vs, nil)
		if !ok {
			t.Fatal("BuildCSR rejected distinct in-range tuples")
		}
		b := BitmapFromCSR(m)
		if b.NNZ() != len(mirror) {
			t.Fatalf("NNZ = %d, mirror has %d", b.NNZ(), len(mirror))
		}
		for i := 0; i < nr; i++ {
			bits, vals := b.RowBits(i), b.RowVals(i)
			for j := 0; j < nc; j++ {
				want, wantOK := mirror[[2]int{i, j}]
				gotOK := bits[j>>6]&(1<<(uint(j)&63)) != 0
				if gotOK != wantOK || (gotOK && vals[j] != want) {
					t.Fatalf("cell (%d,%d) = %v,%v want %v,%v", i, j, vals[j], gotOK, want, wantOK)
				}
			}
		}
		// Round-trip bitmap → CSR → hypersparse → CSR and compare tuples.
		wi, wj, wv := m.Tuples()
		c := b.ToCSR()
		ci, cj, cv := c.Tuples()
		if !sameTuples(wi, wj, wv, ci, cj, cv) {
			t.Fatal("bitmap → CSR changed the built content")
		}
		hi, hj, hv := HyperFromCSR(c).ToCSR().Tuples()
		if !sameTuples(wi, wj, wv, hi, hj, hv) {
			t.Fatal("CSR → hypersparse → CSR changed the built content")
		}
	})
}
