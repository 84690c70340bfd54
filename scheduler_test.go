package graphblas_test

// Facade coverage for the dataflow scheduler: StatsSnapshot exposes the DAG
// counters, and a parallel flush through the public API computes what the
// operations define.

import (
	"testing"

	"graphblas"
)

func TestStatsSnapshotDagCounters(t *testing.T) {
	prevW := graphblas.SetMaxWorkers(4)
	defer graphblas.SetMaxWorkers(prevW)
	if err := graphblas.Wait(); err != nil {
		t.Fatalf("drain Wait: %v", err)
	}
	double, _ := graphblas.NewUnaryOp("double", func(x float64) float64 { return 2 * x })
	// Four independent apply chains: a 4-node, 0-edge DAG. Sources are
	// committed first so the measured flush holds exactly the four applies.
	var src, dst [4]*graphblas.Matrix[float64]
	for k := range dst {
		src[k] = mat(t, 1, 1, []int{0}, []int{0}, []float64{float64(k + 1)})
		dst[k], _ = graphblas.NewMatrix[float64](1, 1)
	}
	if err := graphblas.Wait(); err != nil {
		t.Fatalf("setup Wait: %v", err)
	}
	before := graphblas.StatsSnapshot()
	for k := range dst {
		if err := graphblas.ApplyM(dst[k], graphblas.NoMask, graphblas.NoAccum[float64](), double, src[k], nil); err != nil {
			t.Fatalf("ApplyM %d: %v", k, err)
		}
	}
	if err := graphblas.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	after := graphblas.StatsSnapshot()
	if after.ParallelFlushes <= before.ParallelFlushes {
		t.Errorf("ParallelFlushes did not grow: %d -> %d", before.ParallelFlushes, after.ParallelFlushes)
	}
	if after.DagNodes <= before.DagNodes {
		t.Errorf("DagNodes did not grow: %d -> %d", before.DagNodes, after.DagNodes)
	}
	for k := range dst {
		matHas(t, dst[k], 0, 0, 2*float64(k+1), "dag result")
	}
}
