package main

import (
	"sort"
	"syscall"
	"unsafe"
)

// The host this benchmark runs on changes speed: the same instructions took
// 20–55 % more processor time in one minute than in another, all workloads
// together, presumably with what the neighbours run on the sibling
// hyperthreads and in the shared cache. Nothing inside a run averages that
// out, because a phase outlasts a run. So every processor time of record is
// divided by what a fixed piece of bench-owned work cost right before and
// right after it, and reported in milliseconds of a processor on which that
// work takes calNominalMs. README.md, "Noise", has the measurements, and why
// this works on one P where it did not on two.

// calNominalMs is what one calibration takes on the host the benchmark was
// sized on while its neighbours are quiet.
const calNominalMs = 40

// calibration is the reference work: four loops that lean on different parts
// of the processor, since no one of them slows down like the program does
// (gather alone followed the workloads to within 8–12 %, the sum of the four
// to within 4–6 %). Its buffers are mapped outside the Go heap, so that they
// are not live heap to the collector and do not move the program's GC pacing.
type calibration struct {
	idx  []int32   // gather: 256 k random reads of x ...
	val  []float64 // ... times val, summed into y; 4 MB, the size of L2
	x, y []float64
	big  []uint64 // stream: read-modify-write of 8 MB, past L2
	keys []int    // sort: 16 k keys, branches
	mem  []byte   // the mapping all of them lie in
	mb   float64  // its size, all of it resident
}

func newCalibration() (*calibration, error) {
	const nGather, nX, nY, nBig, nKeys = 1 << 18, 1 << 17, 1 << 14, 1 << 20, 1 << 14
	size := nGather*4 + nGather*8 + nX*8 + nY*8 + nBig*8 + nKeys*8
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	c := &calibration{mem: mem, mb: float64(size) / (1 << 20)}
	off := 0
	carve := func(bytes int) unsafe.Pointer {
		p := unsafe.Pointer(&mem[off])
		off += bytes
		return p
	}
	// The 8-byte arrays first, so that every one of them is aligned.
	c.val = unsafe.Slice((*float64)(carve(nGather*8)), nGather)
	c.x = unsafe.Slice((*float64)(carve(nX*8)), nX)
	c.y = unsafe.Slice((*float64)(carve(nY*8)), nY)
	c.big = unsafe.Slice((*uint64)(carve(nBig*8)), nBig)
	c.keys = unsafe.Slice((*int)(carve(nKeys*8)), nKeys)
	c.idx = unsafe.Slice((*int32)(carve(nGather*4)), nGather)

	s := uint64(0x9e3779b97f4a7c15)
	for i := range c.idx {
		s = xorshift(s)
		c.idx[i] = int32(s % nX)
		c.val[i] = float64(s%1000) / 1000
	}
	for i := range c.x {
		c.x[i] = float64(i%97) / 97
	}
	c.run() // touches every page, so that no later run pays a page fault
	return c, nil
}

// close unmaps the buffers; c must not run again.
func (c *calibration) close() { syscall.Munmap(c.mem) }

func xorshift(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// run does the reference work once and returns the processor milliseconds it
// took. It allocates nothing.
func (c *calibration) run() float64 {
	t0 := cpuSeconds()
	for rep := 0; rep < 6; rep++ {
		for i, j := range c.idx {
			c.y[i&(len(c.y)-1)] = c.y[i&(len(c.y)-1)]*0.5 + c.val[i]*c.x[j]
		}
		for i := range c.big {
			c.big[i] = c.big[i]*3 + uint64(i)
		}
		s := uint64(rep + 1)
		for i := range c.keys {
			s = xorshift(s)
			c.keys[i] = int(s >> 40)
		}
		sort.Ints(c.keys)
		for i := 0; i < 1500000; i++ { // arithmetic: one dependent chain
			s = xorshift(s)
		}
		c.big[0] += s
	}
	return (cpuSeconds() - t0) * 1e3
}

// atReference converts a processor time measured between two calibrations
// into the time a processor takes on which the calibration costs
// calNominalMs.
func atReference(t, calBefore, calAfter float64) float64 {
	return t * calNominalMs / ((calBefore + calAfter) / 2)
}
