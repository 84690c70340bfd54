// Package idxshare holds the golden cases for the idxshare analyzer: one
// Vec takes another's Idx only through shareIdx, and pooledVec adopts only
// a freshly drawn list.
package idxshare

// Vec mirrors the sparse package's vector.
type Vec[T any] struct {
	N    int
	Idx  []int
	Val  []T
	hold *int
}

// shareIdx is the counting helper; it alone may copy another's Idx.
func shareIdx[T, S any](w *Vec[T], src *Vec[S]) {
	w.Idx = src.Idx[:len(src.Idx):len(src.Idx)]
	w.hold = src.hold
}

// pooledVec adopts list as its result's own.
func pooledVec[T any](n int, list []int, val []T) *Vec[T] {
	return &Vec[T]{N: n, Idx: list, Val: val}
}

func applyGood(a *Vec[float64]) *Vec[float64] {
	out := &Vec[float64]{N: a.N, Val: make([]float64, len(a.Val))}
	shareIdx(out, a)
	return out
}

func applyBare(a *Vec[float64]) *Vec[float64] {
	out := &Vec[float64]{N: a.N}
	out.Idx = a.Idx // want `a's Idx taken by out without shareIdx`
	return out
}

func applyClipped(a *Vec[float64]) *Vec[int] {
	out := &Vec[int]{N: a.N}
	out.Idx, out.Val = (a.Idx[:len(a.Idx):len(a.Idx)]), nil // want `a's Idx taken by out without shareIdx`
	return out
}

func literal(a *Vec[float64]) *Vec[float64] {
	return &Vec[float64]{N: a.N, Idx: a.Idx[:len(a.Idx)]} // want `a's Idx taken by a Vec literal without shareIdx`
}

func valueLiteral(a Vec[float64]) Vec[float64] {
	return Vec[float64]{N: a.N, Idx: a.Idx} // want `a's Idx taken by a Vec literal without shareIdx`
}

func adopt(a *Vec[float64]) *Vec[float64] {
	return pooledVec[float64](a.N, a.Idx, nil) // want `pooledVec adopts a's Idx as a fresh list`
}

// Own writes and copies are not sharing.
func ownWrites(v *Vec[float64], i int) []int {
	v.Idx = v.Idx[:i:i]
	v.Idx = append(v.Idx, i)
	fresh := &Vec[float64]{N: v.N, Idx: append([]int(nil), v.Idx...)}
	w := pooledVec(v.N, make([]int, i), v.Val)
	return append(fresh.Idx, w.Idx...)
}
