// Package setalg implements the power-set algebra of Table I, row 5: the
// semiring ⟨P(Z), ∪, ∩, ∅, U⟩ over subsets of a bounded integer universe.
// Matrix elements whose domain is Set carry *sets of labels*; multiplying
// over ∪.∩ propagates, for example, the set of source vertices that can
// reach each target (see the reachability example).
//
// Sets are immutable bitsets: operations return fresh values, which is what
// GraphBLAS element values require (operators must be pure functions).
package setalg

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"graphblas/internal/core"
)

// Set is an immutable subset of the integer universe [0, Universe). The
// universe bound travels with the value so ∩'s identity (the full universe)
// is well-defined.
type Set struct {
	universe int
	words    []uint64
}

// NewSet returns the empty set over [0, universe).
func NewSet(universe int) Set {
	if universe < 0 {
		universe = 0
	}
	return Set{universe: universe, words: make([]uint64, (universe+63)/64)}
}

// SetOf returns the set over [0, universe) holding the given members.
// Out-of-range members are ignored.
func SetOf(universe int, members ...int) Set {
	s := NewSet(universe)
	for _, m := range members {
		if m >= 0 && m < universe {
			s.words[m/64] |= 1 << (uint(m) % 64)
		}
	}
	return s
}

// FullSet returns the whole universe U — the multiplicative identity of the
// power-set semiring.
func FullSet(universe int) Set {
	s := NewSet(universe)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if r := universe % 64; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << uint(r)) - 1
	}
	return s
}

// Universe reports the universe bound.
func (s Set) Universe() int { return s.universe }

// Contains reports membership of m.
func (s Set) Contains(m int) bool {
	if m < 0 || m >= s.universe {
		return false
	}
	return s.words[m/64]&(1<<(uint(m)%64)) != 0
}

// Len reports the cardinality.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set is ∅.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Members returns the elements in increasing order.
func (s Set) Members() []int {
	var out []int
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// Equal reports set equality (universes must match too).
func (s Set) Equal(t Set) bool {
	if s.universe != t.universe {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ t. Universes must match; mismatches panic, as operator
// domain violations are programming errors under the GraphBLAS model.
func (s Set) Union(t Set) Set {
	s.checkSameUniverse(t)
	out := NewSet(s.universe)
	for i := range out.words {
		out.words[i] = s.words[i] | t.words[i]
	}
	return out
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	s.checkSameUniverse(t)
	out := NewSet(s.universe)
	for i := range out.words {
		out.words[i] = s.words[i] & t.words[i]
	}
	return out
}

func (s Set) checkSameUniverse(t Set) {
	if s.universe != t.universe {
		panic(fmt.Sprintf("setalg: universe mismatch %d != %d", s.universe, t.universe))
	}
}

// String renders the set as {a, b, c}.
func (s Set) String() string {
	ms := s.Members()
	sort.Ints(ms)
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprint(m)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// UnionOp returns the ∪ binary operator over a fixed universe.
func UnionOp(universe int) core.BinaryOp[Set, Set, Set] {
	_ = universe // the universe travels with values; parameter documents intent
	return core.BinaryOp[Set, Set, Set]{Name: "union", F: Set.Union}
}

// intersect is the ∩ binary operator, universe-free like Set.Intersect.
var intersect = core.BinaryOp[Set, Set, Set]{Name: "intersect", F: Set.Intersect}

// UnionMonoid returns ⟨P(Z), ∪, ∅⟩.
func UnionMonoid(universe int) core.Monoid[Set] {
	m, err := core.NewMonoid(UnionOp(universe), NewSet(universe))
	if err != nil {
		panic(err)
	}
	return m
}

// IntersectMonoid returns ⟨P(Z), ∩, U⟩.
func IntersectMonoid(universe int) core.Monoid[Set] {
	m, err := core.NewMonoid(intersect, FullSet(universe))
	if err != nil {
		panic(err)
	}
	return m
}

// UnionIntersect returns the Table I power-set semiring ⟨∪, ∩, ∅⟩: addition
// is union (identity ∅), multiplication is intersection (identity U, with ∅
// as its annihilator).
func UnionIntersect(universe int) core.Semiring[Set, Set, Set] {
	s, err := core.NewSemiring(UnionMonoid(universe), intersect)
	if err != nil {
		panic(err)
	}
	return s
}
