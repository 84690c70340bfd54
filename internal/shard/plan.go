// Package shard is the horizontal-sharding layer: a row-partitioned
// multi-engine graph store in which every shard owns a fully independent
// execution engine (core.Instance — its own nonblocking queue, hazard-DAG
// scheduler, flush lock, and error log) holding one localRows×N slice of the
// adjacency. The coordinator routes streamed update batches to shards by
// source row and answers serving queries by scatter-gather: a global frontier
// or rank vector is dealt to the owning shards, each shard runs its slice of
// the GraphBLAS kernel (VxM, reductions) inside its own engine, and the
// coordinator combines the partial results in fixed shard order.
//
// Consistency model. Ingest is all-shards-or-none at the acknowledgement
// boundary: a batch is acknowledged only after every owning shard has
// committed its sub-batch. A partial failure leaves the store frozen — reads
// keep serving the last fully-committed composed snapshot — and the failed
// sub-batches queue for redo; the next write first drains the redo queue, so
// the store converges to containing whole batches before anything newer is
// acknowledged. Sub-batches inherit the streaming layer's last-wins
// semantics, which makes redo idempotent.
//
// Exactness. Row partitioning splits no GraphBLAS reduction within a row, so
// k-hop frontiers, triangle/stats reductions, degrees, and streamed ingest
// are tuple-identical to a single-engine execution at any shard count. PPR
// regroups cross-shard float additions in the coordinator's fixed-order
// gather, so its scores agree with a single engine to summation tolerance
// (CONFORMANCE.md documents the bound); iteration counts agree on the same
// convergence path.
package shard

import "fmt"

// Plan is the vertex→shard routing table of one partitioned deployment: the
// pure arithmetic every layer (ingest routing, query scatter, result gather)
// shares, fixed at store creation. Shard s owns the contiguous row block
// [bounds[s], bounds[s+1]), which preserves row locality: the right layout
// for RMAT-like graphs ingested in row order, and the one that keeps the
// shards' rows, taken in shard order, row-major. Plans are value types and
// safe to copy.
type Plan struct {
	// N is the global vertex-space dimension; Shards the partition width.
	N, Shards int

	// bounds holds the first global row of each shard, with
	// bounds[Shards] == N.
	bounds []int
}

// NewPlan builds the routing table for an n-row graph over the given number
// of shards. It spreads the remainder over the leading shards, so shard
// sizes differ by at most one row.
func NewPlan(n, shards int) (Plan, error) {
	if n <= 0 {
		return Plan{}, fmt.Errorf("shard: vertex space must be positive, got %d", n)
	}
	if shards < 1 || shards > n {
		return Plan{}, fmt.Errorf("shard: shard count %d outside [1, %d]", shards, n)
	}
	p := Plan{N: n, Shards: shards, bounds: make([]int, shards+1)}
	base, rem := n/shards, n%shards
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		p.bounds[s+1] = p.bounds[s] + size
	}
	return p, nil
}

// Owner returns the shard owning global row v.
func (p Plan) Owner(v int) int {
	base, rem := p.N/p.Shards, p.N%p.Shards
	if v < (base+1)*rem {
		return v / (base + 1)
	}
	return rem + (v-(base+1)*rem)/base
}

// Local translates global row v to its index within Owner(v)'s row block.
func (p Plan) Local(v int) int { return v - p.bounds[p.Owner(v)] }

// Global translates shard s's local row index back to the global row.
func (p Plan) Global(s, local int) int { return p.bounds[s] + local }

// LocalRows returns the number of global rows shard s owns.
func (p Plan) LocalRows(s int) int { return p.bounds[s+1] - p.bounds[s] }
