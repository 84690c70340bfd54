package core

// Flush-time kernel fusion. Section IV lets a nonblocking implementation
// defer, reorder, *and transform* queued methods as long as the committed
// results agree with program order; dead-store elimination (markElidable)
// already exploits the "skip" freedom, and this file exploits the "combine"
// freedom: when the hazard DAG shows a producer whose materialized output is
// consumed by exactly one later operation and then dies, the pair collapses
// into one fused node that evaluates the producer's computation inside the
// consumer's kernel, never building the intermediate vector at all.
//
// The mechanism is deliberately structural, not kind-specific:
//
//   - An operation that can *produce* attaches a payload — a vecSource
//     describing its output as a virtual sparse vector (a cursor over
//     (index, value) pairs computed on demand).
//   - An operation that can *consume* attaches a callback that, handed a
//     compatible payload, returns a replacement run closure calling one of
//     internal/sparse's fused kernels, plus (when the combined computation is
//     itself side-effect-free) a chained payload so fusion composes across
//     longer producer chains (apply∘apply→mxv and the like).
//   - planFusion pairs them up under dataflow.FuseLegal, which proves from
//     the access footprints alone that skipping the materialization is a dead
//     store and that every operand the fused kernel will read still holds the
//     value the producer would have seen.
//
// The producer is *not* removed from the schedule: it degrades into a stub
// that keeps its program position — its validity checks, its sequence-gate
// slot, and its slot in the error log all still happen at the right place —
// but performs no work (runOpAt short-cuts it to OutcomeFused). Keeping the
// node preserves every observable ordering the unfused engine has: error-log
// positions, fault-plan draw order, and the hazard edges later operations
// formed against the producer's write.
//
// Fusion is a DAG-scheduler feature (SchedSequential stays the unfused
// reference semantics for differential testing) and disables itself whenever
// a fault plan contains any rule outside the "fuse." namespace: an injected
// failure of an unfused producer has no fused counterpart, so replaying such
// a plan fused would diverge from the sequential schedule. Plans confined to
// the fuse.kernel.* sites target exactly the fused kernels and exercise the
// fused rollback path: a fault there invalidates the consumer's output *and*
// every fused-away intermediate (pendingOp.fusedOuts), attributing the error
// to the consumer's program position — the one operation that actually ran.

import (
	"graphblas/internal/dataflow"
	"graphblas/internal/sparse"
)

// vecSource is the fusion handshake: a virtual sparse vector of domain T.
// vecElems returns the vector's logical dimension, its sorted index list,
// and a cursor producing the stored value at position p of that list. The
// cursor contract matches the fused kernels in internal/sparse: get is
// invoked at most once per position — in increasing position order from one
// goroutine by the streaming kernels (map, dot scatter, assign), but
// possibly concurrently and out of order by the push kernel's parallel
// scatter — so get must be a pure function of committed state. Every source
// here is: each closes over immutable committed stores and operator
// closures. vecElems itself runs inside the consumer's kernel, after every
// hazard edge ordering it behind the operands' writers, so sources read
// their operands' committed stores directly.
type vecSource[T any] interface {
	vecElems() (n int, idx []int, get func(p int) T)
}

// applySource is ApplyV's producer payload: its output viewed as f mapped
// over the stored values of u, without materializing.
type applySource[DA, DC any] struct {
	u *Vector[DA]
	f func(DA) DC
}

func (s applySource[DA, DC]) vecElems() (int, []int, func(p int) DC) {
	d := s.u.vdat()
	f, val := s.f, d.Val
	return d.N, d.Idx, func(p int) DC { return f(val[p]) }
}

// composedSource chains a unary map over another virtual vector — the
// payload a fused apply offers downstream, so apply∘apply∘…→consumer
// collapses into a single kernel.
type composedSource[DA, DC any] struct {
	inner vecSource[DA]
	f     func(DA) DC
}

func (s composedSource[DA, DC]) vecElems() (int, []int, func(p int) DC) {
	n, idx, get := s.inner.vecElems()
	f := s.f
	return n, idx, func(p int) DC { return f(get(p)) }
}

// mxvSource wraps a matrix-vector product as a virtual vector. The product
// is inherently gather-shaped — every output entry folds a whole row or
// column — so the source materializes it on first use (inside the consuming
// kernel) and streams the result; what fusion elides is the *committed*
// intermediate object, its snapshot, and its store swap, not the arithmetic.
type mxvSource[DC any] struct {
	compute func() *sparse.Vec[DC]
}

func (s mxvSource[DC]) vecElems() (int, []int, func(p int) DC) {
	t := s.compute()
	val := t.Val
	return t.N, t.Idx, func(p int) DC { return val[p] }
}

// fuseInfo is the fusion capability descriptor an operation attaches at
// enqueue time (opSpec.fuse). All fields are optional: an op may be only
// a producer, only a consumer, or neither under its current arguments.
type fuseInfo struct {
	// producer is the virtual-vector payload this op offers a downstream
	// consumer instead of materializing its output; nil when the op cannot
	// stream (a mask or accumulator makes its output depend on the prior
	// committed content, which a virtual view cannot express).
	producer any
	// srcID identifies the operand this op could consume a fused stream
	// for — the object whose producing operation would be fused away.
	srcID uint64
	// consume attempts to absorb a producer payload for the srcID operand.
	// On success it returns the replacement run closure (calling a fused
	// kernel from internal/sparse) and the payload *this* op's output should
	// present to consumers further down the chain (nil when the fused result
	// is merged/masked into prior content and cannot stream onward).
	// ok is false when the payload's domain does not match.
	//
	// Ops must leave consume nil when their mask is the srcID operand
	// itself. The fused kernels resolve the mask from its committed store at
	// run time, but fusing stubs the producer so the source's store is never
	// refreshed: a mask aliasing the source would filter through the *stale*
	// content while the kernel streams the fresh values. dataflow.FuseLegal
	// cannot veto this case — footprints list the mask and the data operand
	// as indistinguishable reads — so the veto lives here, where the mask's
	// identity is known. (Transitive aliasing needs no guard: a mask reading
	// a fused-away intermediate from *outside* the pair is a plain read of X
	// after j, which FuseLegal already rejects.)
	consume func(src any) (run func() error, chained any, ok bool)
}

// planFusion is the flush-time fusion pass. It scans the runnable queue in
// program order, pairing each fusion-capable consumer with the most recent
// writer of its source operand when dataflow.FuseLegal proves the pair
// collapsible, and rewrites both pending operations in place:
//
//   - the consumer's run closure is replaced by the fused kernel, its read
//     set is extended with the producer's reads (the fused kernel evaluates
//     them at the consumer's position, so the hazard graph must order it
//     against their writers exactly as it ordered the producer), and the
//     fused-away output is recorded in fusedOuts so a fused-kernel failure
//     invalidates both logical results;
//   - the producer becomes a stub (fusedStub): it keeps its program position
//     and validity semantics but runs no kernel.
//
// metas is mutated in step with the nodes (extended consumer read sets) and
// must be the slice later handed to dataflow.Build. Chains fuse through the
// consumers' chained payloads: once (i,j) fuses, node j's offered payload is
// the composition, so a later consumer of j's output folds all three. The
// scan is greedy in program order, which is optimal for linear chains — the
// only shape the pairwise legality predicate admits, since fusing (i,j)
// requires j to be X's sole reader.
//
// Returns the number of pairs fused. Caller holds the context lock; the
// rewrites touch only the pending ops themselves.
func planFusion(nodes []*pendingOp, metas []dataflow.OpMeta) int {
	fused := 0
	// payload[i] is the virtual-vector view of nodes[i]'s output as of the
	// current rewrite state: the op's own offer, or the chained composition
	// after the op itself consumed an upstream producer.
	payload := make([]any, len(nodes))
	lastWriter := make(map[uint64]int, len(nodes))
	for j, cons := range nodes {
		if cons.fuse != nil {
			payload[j] = cons.fuse.producer
		}
		if cons.fuse != nil && cons.fuse.consume != nil {
			if i, ok := lastWriter[cons.fuse.srcID]; ok {
				prod := nodes[i]
				if !prod.fusedStub && payload[i] != nil && dataflow.FuseLegal(metas, i, j) {
					if run, chained, ok := cons.fuse.consume(payload[i]); ok {
						cons.run = run
						// The fused kernel computes every fused-away ancestor's
						// value: a failure there must invalidate them all.
						cons.fusedOuts = append(append([]*obj(nil), prod.fusedOuts...), prod.out)
						// Extend the consumer's footprint with the producer's
						// reads — appended after the originals so the validity
						// scan reports the same first-invalid operand as the
						// unfused pair would.
						cons.reads = append(append([]*obj(nil), cons.reads...), prod.reads...)
						metas[j].Reads = append(metas[j].Reads, metas[i].Reads...)
						payload[j] = chained
						prod.fusedStub = true
						fused++
					}
				}
			}
		}
		lastWriter[metas[j].Out] = j
	}
	return fused
}
