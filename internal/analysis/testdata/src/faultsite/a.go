// Package faultsite holds the golden cases for the faultsite analyzer:
// kernel fault-injection sites must be constant, dotted, namespaced string
// literals, unique per kernel, and in sync with the canonical
// faults.KernelSites list.
package faultsite

import "faults"

// KernelSites is the canonical registry the analyzer cross-checks; in the
// engine it lives in internal/faults.
var KernelSites = []string{
	"sparse.kernel.good",
	"sparse.kernel.goof",
	"sparse.kernel.dup",
	"shard.kernel.good",
	"format.kernel.unused", // want `drawn by no kernel`
}

func goodKernel() {
	faults.Step("sparse.kernel.good")
}

func goofKernel() {
	faults.Step("sparse.kernel.goof")
}

// typoKernel misspells a registered site; the analyzer suggests the
// nearest declared name.
func typoKernel() {
	faults.Step("sparse.kernel.gooff") // want `not in faults.KernelSites \(did you mean "sparse.kernel.goof"\?\)`
}

// undottedKernel would break PlanCoversKernelSites' dotted-site
// classification and the DAG flush's determinism gate.
func undottedKernel() {
	faults.Step("nodots") // want `has no dot` `not in faults.KernelSites`
}

// wrongNamespace is dotted but outside every registered namespace.
func wrongNamespace() {
	faults.Step("wrong.namespace.site") // want `outside the registered namespaces` `not in faults.KernelSites`
}

// shardKernel draws from the shard.kernel. namespace the sharding
// coordinator registered.
func shardKernel() {
	faults.Step("shard.kernel.good")
}

// unregisteredShardKernel is inside the shard.kernel. namespace but missing
// from KernelSites — the exact hole that would make a fault plan written
// against the registry silently unreachable.
func unregisteredShardKernel() {
	faults.Step("shard.kernel.rogue") // want `fault site "shard.kernel.rogue" is not in faults.KernelSites`
}

// dynamicSite cannot be targeted by a plan.
func dynamicSite(site string) {
	faults.Step(site) // want `must be a constant string`
}

// dupKernelA and dupKernelB share one site — the PR 5 hyper.mxv copy-paste:
// a plan cannot tell the two kernels apart.
func dupKernelA() {
	faults.Step("sparse.kernel.dup") // want `drawn from 2 different functions`
}

func dupKernelB() {
	faults.Step("sparse.kernel.dup") // want `drawn from 2 different functions`
}

// checkIsExempt: executor-level Check sites are op names, intentionally
// dynamic.
func checkIsExempt(op string) {
	if err := faults.Check(op); err != nil {
		panic(err)
	}
}

// governAllocChecked: GovernAlloc draws follow the same site rules.
func governAllocChecked() {
	faults.GovernAlloc("alloc", 1) // want `has no dot` `not in faults.KernelSites`
}
