package core

import (
	"math/rand"
	"testing"

	"graphblas/internal/parallel"
)

// flushShapes is the three shapes of a nonblocking flush on small vectors:
// a line of MxV → ApplyV → ApplyV links, eight independent such chains in
// one flush, and two-op flushes each forced by a read of their result.
type flushShapes struct {
	sem  Semiring[float64, float64, float64]
	half UnaryOp[float64, float64]
	a    []*Matrix[float64]
	src  []*Vector[float64]
	mid  []*Vector[float64]
	tmp  []*Vector[float64]
	out  []*Vector[float64]
	ping [2]*Vector[float64]
}

const (
	shapeChains = 8 // matrices, and independent chains per flush
	shapeLinks  = 3 // MxV → ApplyV → ApplyV
	shapeN      = 256
)

func newFlushShapes(t *testing.T) *flushShapes {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	s := &flushShapes{
		sem:  plusTimesF64(t),
		half: UnaryOp[float64, float64]{Name: "half", F: func(x float64) float64 { return x / 2 }},
	}
	vec := func() *Vector[float64] {
		v, err := NewVector[float64](shapeN)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	idx, ones := make([]int, shapeN), make([]float64, shapeN)
	for i := range idx {
		idx[i], ones[i] = i, 1
	}
	for k := 0; k < shapeChains; k++ {
		a, _ := newTestMatrix(t, rng, shapeN, shapeN, 0.03)
		src := vec()
		if err := src.Build(idx, ones, NoAccum[float64]()); err != nil {
			t.Fatal(err)
		}
		s.a, s.src = append(s.a, a), append(s.src, src)
		s.mid, s.tmp, s.out = append(s.mid, vec()), append(s.tmp, vec()), append(s.out, vec())
	}
	s.ping = [2]*Vector[float64]{vec(), vec()}
	if err := Wait(); err != nil {
		t.Fatal(err)
	}
	return s
}

// chained enqueues a line of 24 ops, each reading its predecessor's output,
// and flushes it.
func (s *flushShapes) chained() error {
	cur := s.src[0]
	for i := 0; i < shapeChains*shapeLinks; i++ {
		nxt := s.ping[i%2]
		var err error
		if i%shapeLinks == 0 {
			err = MxV(nxt, NoMaskV, NoAccum[float64](), s.sem, s.a[0], cur, nil)
		} else {
			err = ApplyV(nxt, NoMaskV, NoAccum[float64](), s.half, cur, nil)
		}
		if err != nil {
			return err
		}
		cur = nxt
	}
	return Wait()
}

// independent enqueues eight disjoint chains and flushes them together.
func (s *flushShapes) independent() error {
	for k := 0; k < shapeChains; k++ {
		if err := MxV(s.mid[k], NoMaskV, NoAccum[float64](), s.sem, s.a[k], s.src[k], nil); err != nil {
			return err
		}
		if err := ApplyV(s.tmp[k], NoMaskV, NoAccum[float64](), s.half, s.mid[k], nil); err != nil {
			return err
		}
		if err := ApplyV(s.out[k], NoMaskV, NoAccum[float64](), s.half, s.tmp[k], nil); err != nil {
			return err
		}
	}
	return Wait()
}

// tiny enqueues two ApplyV and forces them with a read of the second's
// result.
func (s *flushShapes) tiny() error {
	if err := ApplyV(s.mid[0], NoMaskV, NoAccum[float64](), s.half, s.src[0], nil); err != nil {
		return err
	}
	if err := ApplyV(s.tmp[0], NoMaskV, NoAccum[float64](), s.half, s.mid[0], nil); err != nil {
		return err
	}
	_, err := s.tmp[0].NVals()
	return err
}

// opAllocs is what one MxV or ApplyV allocates for itself: its compute
// closure and the header of the store it commits. Nothing else of a flush —
// the op record, its footprint, the rollback, the DAG and its run, a
// helper's start, the outcomes — may allocate.
const opAllocs = 2

// TestFlushAllocBudget holds a nonblocking flush to the allocations of its
// operations alone, with none per flush: the queue's records, the
// footprints the DAG is built from, the graph and its run state and the
// per-op outcomes all live in buffers the context reuses. It runs the three
// shapes on the sequential path (one worker) and on the DAG (four).
func TestFlushAllocBudget(t *testing.T) {
	for _, workers := range []int{1, 4} {
		parallel.SetMaxWorkersForTest(t, workers)
		withMode(t, NonBlocking, func() {
			s := newFlushShapes(t)
			line := float64(shapeChains * shapeLinks * opAllocs)
			for _, c := range []struct {
				name   string
				run    func() error
				budget float64
			}{
				{"chained", s.chained, line},
				{"independent", s.independent, line},
				{"tiny", s.tiny, 2 * opAllocs},
			} {
				var err error
				f := func() {
					if e := c.run(); e != nil && err == nil {
						err = e
					}
				}
				f()
				got := testing.AllocsPerRun(50, f)
				if err != nil {
					t.Fatalf("%s flush at %d workers: %v", c.name, workers, err)
				}
				t.Logf("%s flush at %d workers: %.1f allocations, budget %.0f", c.name, workers, got, c.budget)
				if got > c.budget {
					t.Errorf("%s flush at %d workers allocates %.1f per flush, budget %.0f: the flush's own bookkeeping allocates again", c.name, workers, got, c.budget)
				}
			}
		})
	}
}
