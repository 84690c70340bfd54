package faults

// KernelSites is the canonical registry of every kernel-internal injection
// site in the tree: the dotted literals drawn by faults.Step and
// faults.GovernAlloc inside internal/sparse, internal/format and the format
// glue of internal/core. Executor level faults.Check sites are operation
// names, dynamic by design, and are not listed.
//
// The grblint faultsite analyzer cross-checks this list against the code in
// both directions — a drawn-but-unlisted site (typo or unregistered kernel)
// and a listed-but-undrawn one (dead registry entry) are both findings — so
// a fault plan or a differential sweep can be written against this list with
// the guarantee that every name on it is reachable.
var KernelSites = []string{
	// internal/sparse CSR/vector kernels.
	"sparse.kernel.reduce.rows",
	"sparse.kernel.reduce.all",
	"sparse.kernel.reduce.vec",
	"sparse.kernel.spgemm",
	"sparse.kernel.spgemm.masked",
	"sparse.kernel.spgemm.dot",

	// internal/format bitmap kernels: the dense ⟨+,×⟩ product MxM runs,
	// and the dot kernel the benchmark probes time.
	"format.kernel.bitmap.mxv",
	"format.kernel.bitmap.mxm.fast",

	// internal/format allocation-governor gates.
	"format.alloc.hyper",
	"format.alloc.bitmap",

	// internal/core format glue: the pull the direction rule chose for a
	// scatter product (pushOrPull) and the transpose build it may need. A
	// recoverable fault at either falls back to the push kernel.
	"format.kernel.csr.pull",
	"format.alloc.transpose",

	// internal/stream ingestion kernels and governor gate.
	"stream.kernel.absorb",
	"stream.kernel.merge",
	"stream.alloc.delta",

	// internal/shard scatter-gather coordination kernels and governor gate.
	// These run on the sharding coordinator, outside the per-instance
	// executors, so the shard layer contains their fault panics itself
	// (shard.runKernel) with the same rollback-to-error discipline.
	"shard.kernel.route",
	"shard.kernel.scatter",
	"shard.kernel.gather",
	"shard.alloc.partial",
}
