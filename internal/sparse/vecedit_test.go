package sparse

// Point edits of a Vec, for tests that build vectors element by element.
// They write into v's Idx in place, which the package itself never does (a
// vector's Idx may be shared, emit.go), so they live here and are called
// only on vectors a test built itself. The engine's point updates are
// pending tuples merged into fresh storage (pending.go).

// Set stores value x at index i, overwriting any existing element.
func (v *Vec[T]) Set(i int, x T) {
	p, ok := v.find(i)
	if ok {
		v.Val[p] = x
		return
	}
	v.Idx = append(v.Idx, 0)
	v.Val = append(v.Val, x)
	copy(v.Idx[p+1:], v.Idx[p:])
	copy(v.Val[p+1:], v.Val[p:])
	v.Idx[p] = i
	v.Val[p] = x
}

// Remove deletes the element at index i if present and reports whether an
// element was removed.
func (v *Vec[T]) Remove(i int) bool {
	p, ok := v.find(i)
	if !ok {
		return false
	}
	v.Idx = append(v.Idx[:p], v.Idx[p+1:]...)
	v.Val = append(v.Val[:p], v.Val[p+1:]...)
	return true
}
