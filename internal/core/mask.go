package core

import (
	"sync"
	"unsafe"

	"graphblas/internal/pool"
	"graphblas/internal/sparse"
)

// Mask semantics (Sections III-C and VI): a write mask is any GraphBLAS
// vector or matrix; the positions that "exist and are true" control which
// results reach the output. The C API performs an implicit cast of the mask
// domain to bool; this binding reproduces that with a runtime truthiness
// interpretation: bool is itself, numeric types are v != 0, and any other
// domain counts every stored element as true (a purely structural mask).
// The structural complement (GrB_SCMP) complements the *structure* — the
// set of stored positions — exactly as the paper defines it.
//
// Passing a nil *Vector or *Matrix is the analogue of GrB_NULL: no mask.
// NoMask is provided for readability at call sites.

// NoMask is the "no write mask" argument (GrB_NULL) for operations on
// matrix outputs.
var NoMask *Matrix[bool]

// NoMaskV is the "no write mask" argument (GrB_NULL) for operations on
// vector outputs.
var NoMaskV *Vector[bool]

// truthy is the implicit bool cast the C API applies to mask values.
func truthy[T any](v T) bool {
	switch x := any(v).(type) {
	case bool:
		return x
	case int:
		return x != 0
	case int8:
		return x != 0
	case int16:
		return x != 0
	case int32:
		return x != 0
	case int64:
		return x != 0
	case uint:
		return x != 0
	case uint8:
		return x != 0
	case uint16:
		return x != 0
	case uint32:
		return x != 0
	case uint64:
		return x != 0
	case float32:
		return x != 0
	case float64:
		return x != 0
	default:
		return true // user-defined domains: structural interpretation
	}
}

// truthyIdx returns the stored indices idx[k] whose values val[k] are
// truthy, in order, with fast paths for common mask domains. It returns idx
// itself when every value is truthy, and otherwise a list drawn from the
// pool (pool.RawVals), which the operation gives back once its write-back is
// in (releaseVecMask, releaseMatMask): a value mask with a false entry is
// resolved on every operation that reads it, an SSSP frontier's every
// sweep.
func truthyIdx[T any](idx []int, val []T) []int {
	switch vs := any(val).(type) {
	case []bool:
		all := true
		for _, b := range vs {
			if !b {
				all = false
				break
			}
		}
		if all {
			return idx
		}
		eff := pool.RawVals[int](len(idx))[:0]
		for k, b := range vs {
			if b {
				eff = append(eff, idx[k])
			}
		}
		return eff
	case []int32:
		return truthyIdxNum(idx, vs)
	case []int64:
		return truthyIdxNum(idx, vs)
	case []float32:
		return truthyIdxNum(idx, vs)
	case []float64:
		return truthyIdxNum(idx, vs)
	}
	all := true
	for _, v := range val {
		if !truthy(v) {
			all = false
			break
		}
	}
	if all {
		return idx
	}
	eff := pool.RawVals[int](len(idx))[:0]
	for k, v := range val {
		if truthy(v) {
			eff = append(eff, idx[k])
		}
	}
	return eff
}

func truthyIdxNum[T int32 | int64 | float32 | float64](idx []int, val []T) []int {
	all := true
	for _, v := range val {
		if v == 0 {
			all = false
			break
		}
	}
	if all {
		return idx
	}
	eff := pool.RawVals[int](len(idx))[:0]
	for k, v := range val {
		if v != 0 {
			eff = append(eff, idx[k])
		}
	}
	return eff
}

// resolveVecMask converts a vector mask object into the kernel form. Must
// run at operation-execution time so the mask content is current. A nil
// mask returns nil. A complemented mask is structural (SCMP): every kernel
// reads only its Structure, so its Idx, the truthy positions, is left nil
// rather than built for nobody.
func resolveVecMask[DM any](mask *Vector[DM], comp bool) *sparse.VecMask {
	if mask == nil {
		return nil
	}
	d := mask.vdat()
	vm := vecMasks.get()
	*vm = sparse.VecMask{N: d.N, Structure: d.Idx, Comp: comp}
	if !comp {
		vm.Idx = truthyIdx(d.Idx, d.Val)
	}
	return vm
}

// resolveMatMask converts a matrix mask object into the kernel pattern
// form. When every value is truthy the pattern is the mask's storage;
// otherwise its row pointer and columns are drawn from the pool, as
// truthyIdx draws a vector mask's list.
func resolveMatMask[DM any](mask *Matrix[DM], comp bool) *sparse.MatMask {
	if mask == nil {
		return nil
	}
	d := mask.mdat()
	mm := &sparse.MatMask{
		NCols:  d.NCols,
		StrPtr: d.Ptr,
		StrIdx: d.ColIdx,
		Comp:   comp,
	}
	eff := truthyIdx(d.ColIdx[:d.NNZ()], d.Val[:d.NNZ()])
	if len(eff) == d.NNZ() {
		// Every stored value truthy: effective pattern == structure.
		mm.EffPtr, mm.EffIdx = d.Ptr, d.ColIdx
		return mm
	}
	// Rebuild a row pointer for the filtered pattern. Walk rows and count
	// how many of each row's entries survived; the filtered indices remain
	// in row-major order because truthyIdx preserves order.
	effPtr := pool.Vals[int](d.NRows + 1)
	pos := 0
	for i := 0; i < d.NRows; i++ {
		// Count survivors of row i by walking its value range again.
		cnt := 0
		for p := d.Ptr[i]; p < d.Ptr[i+1]; p++ {
			if truthy(d.Val[p]) {
				cnt++
			}
		}
		pos += cnt
		effPtr[i+1] = pos
	}
	mm.EffPtr, mm.EffIdx = effPtr, eff
	return mm
}

// vecMasks holds the resolved vector masks releaseVecMask gave back, for
// the next operation under a mask to resolve its own into. A mask is given
// back by the operation that resolved it, so the list holds about one per
// engine worker; it keeps at most maxFreeMasks.
var vecMasks maskFreelist

const maxFreeMasks = 64

type maskFreelist struct {
	mu   sync.Mutex
	free []*sparse.VecMask
}

func (f *maskFreelist) get() *sparse.VecMask {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		vm := f.free[n-1]
		f.free = f.free[:n-1]
		return vm
	}
	return new(sparse.VecMask)
}

func (f *maskFreelist) put(vm *sparse.VecMask) {
	*vm = sparse.VecMask{}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.free) < maxFreeMasks {
		f.free = append(f.free, vm)
	}
}

// releaseVecMask gives back vm and the list of truthy positions
// resolveVecMask drew for it, if it drew one. The operation's write-back
// must be in: no kernel result keeps a mask or its list, so nothing reaches
// them after that.
func releaseVecMask(vm *sparse.VecMask) {
	if vm == nil {
		return
	}
	if drawn(vm.Idx, vm.Structure) {
		pool.Recycle(vm.Idx)
	}
	vecMasks.put(vm)
}

// releaseMatMask is releaseVecMask for a matrix mask: its effective
// pattern's row pointer and columns, when it has a pattern of its own.
func releaseMatMask(mm *sparse.MatMask) {
	if mm != nil && drawn(mm.EffIdx, mm.StrIdx) {
		pool.Recycle(mm.EffIdx)
		pool.Recycle(mm.EffPtr)
	}
}

// drawn reports whether a mask's effective list eff was drawn for it: it is
// not its structure, the mask's own storage.
func drawn(eff, structure []int) bool {
	return cap(eff) > 0 && unsafe.SliceData(eff) != unsafe.SliceData(structure)
}

// maskReads appends the mask object to an operation's read set when a mask
// is present. The mask enters the footprint here and nowhere else, after the
// data operands, so it stays distinguishable from them.
func maskReads(reads []*obj, mask *obj) []*obj {
	if mask != nil {
		reads = append(reads, mask)
	}
	return reads
}
