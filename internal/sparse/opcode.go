package sparse

// Opcode names a predefined binary operator. internal/builtins stamps one on
// every operator it constructs, and core hands it to the kernels beside the
// operator's function for as long as that function is the one the
// constructor installed; a user's operator, and a built-in whose function was
// replaced, arrive as OpNone. A kernel that has a loop for the pair (⊗, ⊕)
// over the output domain runs it with both operators inline (builtin.go);
// every other pair runs the closure loop, which stays the reference the
// specialized loops are tested against bit for bit.
type Opcode uint8

// The predefined binary operators: Table IV's families plus GraphBLAS 2.0's
// GrB_ONEB (pair) and |x − y|.
const (
	OpNone   Opcode = iota
	OpFirst         // x
	OpSecond        // y
	OpPair          // 1, whatever x and y hold
	OpPlus
	OpMinus
	OpTimes
	OpDiv
	OpMin
	OpMax
	OpAbsDiff
	OpEq
	OpNe
	OpLt
	OpGt
	OpLe
	OpGe
	OpLOr
	OpLAnd
	OpLXor
)

// Ring is the semiring ⊕.⊗ as the kernels receive it: the two functions,
// and beside each the opcode naming it when it is predefined. Mul takes the
// kernel's operands in the kernel's order — (A, u) in the mxv kernels, (A, B)
// in SpGEMM. Swapped says Mul is MulOp with those operands swapped,
// Mul(a, u) = MulOp(u, a), which is how VxM hands ⊗ over: the loops then
// compute MulOp(u, a) too — first becomes second, min and max keep the
// closure's operand order. The opcodes only choose a loop; they never change
// a result.
type Ring[DA, DB, DC any] struct {
	Mul          func(DA, DB) DC
	Add          func(DC, DC) DC
	MulOp, AddOp Opcode
	Swapped      bool
}
