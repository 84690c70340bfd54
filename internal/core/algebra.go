package core

// This file implements the algebraic object hierarchy of Figure 1: unary and
// binary operators, monoids, and semirings. The C API's triples of opaque
// handle + constructor + domains become generic structs whose type
// parameters are the domains, so domain compatibility is checked by the Go
// compiler rather than returned as GrB_DOMAIN_MISMATCH at run time.

import (
	"unsafe"

	"graphblas/internal/sparse"
)

// UnaryOp is a GraphBLAS unary operator F_u = ⟨D1, D2, f⟩ with
// f : D1 → D2 (Section III-B).
type UnaryOp[D1, D2 any] struct {
	Name string
	F    func(D1) D2
}

// Defined reports whether the operator has a function (the zero value is an
// absent operator, the analogue of GrB_NULL).
func (op UnaryOp[D1, D2]) Defined() bool { return op.F != nil }

// NewUnaryOp builds a unary operator from a function (GrB_UnaryOp_new).
func NewUnaryOp[D1, D2 any](name string, f func(D1) D2) (UnaryOp[D1, D2], error) {
	if f == nil {
		return UnaryOp[D1, D2]{}, errf(NullPointer, "NewUnaryOp", "nil function")
	}
	return UnaryOp[D1, D2]{Name: name, F: f}, nil
}

// BinaryOp is a GraphBLAS binary operator F_b = ⟨D1, D2, D3, ⊙⟩ with
// ⊙ : D1 × D2 → D3 (Section III-B).
//
// A predefined operator also carries an opcode naming it, which lets the
// kernels compute it inline (sparse.Opcode). The opcode is set by
// PredefinedBinaryOp alone, together with F's funcval pointer at that
// moment, and it counts only while F is still that function: a copy whose F
// was reassigned is a user operator. The guard compares funcvals because
// code pointers do not identify a closure — inlining gives two Plus[float64]()
// calls two copies of its body.
type BinaryOp[D1, D2, D3 any] struct {
	Name string
	F    func(D1, D2) D3

	code sparse.Opcode
	fn   unsafe.Pointer
}

// Defined reports whether the operator has a function; the zero value plays
// the role of GrB_NULL (e.g. "no accumulator").
func (op BinaryOp[D1, D2, D3]) Defined() bool { return op.F != nil }

// NewBinaryOp builds a binary operator from a function (GrB_BinaryOp_new).
// The operator is a user's, with no opcode, whatever function it wraps.
func NewBinaryOp[D1, D2, D3 any](name string, f func(D1, D2) D3) (BinaryOp[D1, D2, D3], error) {
	if f == nil {
		return BinaryOp[D1, D2, D3]{}, errf(NullPointer, "NewBinaryOp", "nil function")
	}
	return BinaryOp[D1, D2, D3]{Name: name, F: f}, nil
}

// PredefinedBinaryOp is the constructor of internal/builtins: the operator
// f under name, known to the kernels as code. f must compute exactly what
// code names over D1 × D2 → D3; the specialized loops compute that, not f.
func PredefinedBinaryOp[D1, D2, D3 any](code sparse.Opcode, name string, f func(D1, D2) D3) BinaryOp[D1, D2, D3] {
	return BinaryOp[D1, D2, D3]{Name: name, F: f, code: code, fn: funcval(f)}
}

// opcode is the operator's opcode for this call: OpNone unless F is still
// the function PredefinedBinaryOp installed.
func (op BinaryOp[D1, D2, D3]) opcode() sparse.Opcode {
	if op.code == sparse.OpNone || funcval(op.F) != op.fn {
		return sparse.OpNone
	}
	return op.code
}

// funcval is f's funcval pointer: the value a func variable holds, distinct
// for every closure a constructor returns.
func funcval[F any](f F) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&f)) }

// NoAccum is the explicit "do not accumulate" accumulator argument, the
// analogue of passing GrB_NULL for accum in the C API.
func NoAccum[D any]() BinaryOp[D, D, D] { return BinaryOp[D, D, D]{} }

// IndexUnaryOp maps (value, row, col) → result. It is the index-aware
// operator later GraphBLAS revisions added for select/apply; provided here
// as a documented extension because the algorithm suite needs structural
// selections (e.g. the lower triangle for triangle counting). For vectors
// the column argument is always 0.
//
// A predefined positional select operator (Tril, Triu, DiagSel, OffDiag)
// also carries the band and bound it keeps, which lets SelectM select a
// matrix's entries by position instead of calling F on each
// (sparse.SelectBandCSR). As with BinaryOp's opcode, PositionalSelect alone
// sets them, and they count only while F is still the function it
// installed.
type IndexUnaryOp[D1, D2 any] struct {
	Name string
	F    func(v D1, i, j int) D2

	band sparse.Band
	k    int
	fn   unsafe.Pointer
}

// Defined reports whether the operator has a function.
func (op IndexUnaryOp[D1, D2]) Defined() bool { return op.F != nil }

// PositionalSelect is the constructor of internal/builtins' positional
// select operators: the predicate f under name, known to SelectM as the band
// and bound k. f must keep exactly what band and k name; the positional
// select computes that, not f.
func PositionalSelect[D any](band sparse.Band, k int, name string, f func(D, int, int) bool) IndexUnaryOp[D, bool] {
	return IndexUnaryOp[D, bool]{Name: name, F: f, band: band, k: k, fn: funcval(f)}
}

// position is the operator's band and bound for this call: BandNone unless
// F is still the function PositionalSelect installed.
func (op IndexUnaryOp[D1, D2]) position() (sparse.Band, int) {
	if op.band == sparse.BandNone || funcval(op.F) != op.fn {
		return sparse.BandNone, 0
	}
	return op.band, op.k
}

// Monoid is a GraphBLAS monoid M = ⟨D1, ⊙, 0⟩: an associative operator on a
// single domain with an identity element (Section III-B). Terminal, when
// non-nil, recognizes the monoid's annihilator ("terminal") value — e.g.
// true for ⟨∨⟩, +∞ for ⟨max⟩ — letting reductions stop early once the
// accumulator can no longer change. It is a performance hint with no
// semantic effect.
type Monoid[D any] struct {
	Op       BinaryOp[D, D, D]
	Identity D
	Terminal func(D) bool
}

// Defined reports whether the monoid has an operation.
func (m Monoid[D]) Defined() bool { return m.Op.Defined() }

// NewMonoid builds a monoid from a binary operator with all three domains
// equal and its identity element (GrB_Monoid_new). Associativity cannot be
// checked mechanically and is the caller's obligation, as in the C API.
func NewMonoid[D any](op BinaryOp[D, D, D], identity D) (Monoid[D], error) {
	if !op.Defined() {
		return Monoid[D]{}, errf(UninitializedObject, "NewMonoid", "operator not initialized")
	}
	return Monoid[D]{Op: op, Identity: identity}, nil
}

// NewMonoidWithTerminal builds a monoid whose annihilator value is
// recognized by terminal, enabling early-exit reductions (extension).
func NewMonoidWithTerminal[D any](op BinaryOp[D, D, D], identity D, terminal func(D) bool) (Monoid[D], error) {
	m, err := NewMonoid(op, identity)
	if err != nil {
		return m, err
	}
	if terminal == nil {
		return m, errf(NullPointer, "NewMonoidWithTerminal", "nil terminal predicate")
	}
	m.Terminal = terminal
	return m, nil
}

// Semiring is a GraphBLAS semiring S = ⟨D1, D2, D3, ⊕, ⊗, 0⟩ built from an
// additive monoid over D3 and a multiplicative binary operator
// D1 × D2 → D3 (Section III-B and Figure 1). Unlike the classical algebraic
// semiring it permits three distinct domains and needs no multiplicative
// identity.
type Semiring[D1, D2, D3 any] struct {
	Add Monoid[D3]
	Mul BinaryOp[D1, D2, D3]
}

// Defined reports whether both components are present.
func (s Semiring[D1, D2, D3]) Defined() bool { return s.Add.Defined() && s.Mul.Defined() }

// NewSemiring builds a semiring from an additive monoid and a multiplicative
// operator (GrB_Semiring_new).
func NewSemiring[D1, D2, D3 any](add Monoid[D3], mul BinaryOp[D1, D2, D3]) (Semiring[D1, D2, D3], error) {
	if !add.Defined() {
		return Semiring[D1, D2, D3]{}, errf(UninitializedObject, "NewSemiring", "additive monoid not initialized")
	}
	if !mul.Defined() {
		return Semiring[D1, D2, D3]{}, errf(UninitializedObject, "NewSemiring", "multiplicative operator not initialized")
	}
	return Semiring[D1, D2, D3]{Add: add, Mul: mul}, nil
}

// ring is s as the kernels receive it, its opcodes read once for the call.
func (s Semiring[D1, D2, D3]) ring() sparse.Ring[D1, D2, D3] {
	return sparse.Ring[D1, D2, D3]{Mul: s.Mul.F, Add: s.Add.Op.F, MulOp: s.Mul.opcode(), AddOp: s.Add.Op.opcode()}
}

// flipped is ring for a caller handing the kernels ⊗'s operands swapped, as
// VxM does: Mul is s.Mul.F with (u, a) read from the kernel's (a, u), and
// the ring says so (Swapped), so the loops keep that order too.
func (s Semiring[D1, D2, D3]) flipped() sparse.Ring[D2, D1, D3] {
	f := s.Mul.F
	return sparse.Ring[D2, D1, D3]{
		Mul:     func(a D2, u D1) D3 { return f(u, a) },
		Add:     s.Add.Op.F,
		MulOp:   s.Mul.opcode(),
		AddOp:   s.Add.Op.opcode(),
		Swapped: true,
	}
}
