// Package format holds the matrix layouts other than CSR and the one kernel
// that pays for one. A Matrix stores CSR and nothing else; the bitmap
// layout lives here as the transient operand of the dense ⟨+,×⟩ product
// (DenseProductWins, TryMxMPlusTimes), and the hypersparse layout as the
// streaming delta overlay (HyperDelta). Hyper, Convert and DotMxVBitmap
// remain as converters and a kernel the benchmark probes time.
//
// The package deliberately contains no GraphBLAS semantics: like package
// sparse, it sees pre-resolved masks and plain Go functions.
package format

// Kind identifies a storage layout for matrix content.
type Kind uint8

const (
	// Auto asks Convert to keep the layout a store already has.
	Auto Kind = iota
	// CSRKind is the compressed-sparse-row layout of sparse.CSR.
	CSRKind
	// BitmapKind is the dense layout of Bitmap: a validity bitset plus a
	// full nrows×ncols value array, O(1) random access.
	BitmapKind
	// HyperKind is the hypersparse layout of Hyper: only non-empty rows are
	// represented, so row-structure cost scales with the number of
	// non-empty rows instead of nrows.
	HyperKind
)

// String returns the layout name.
func (k Kind) String() string {
	switch k {
	case Auto:
		return "auto"
	case CSRKind:
		return "csr"
	case BitmapKind:
		return "bitmap"
	case HyperKind:
		return "hypersparse"
	}
	return "unknown"
}
