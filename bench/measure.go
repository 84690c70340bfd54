package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// window is what the process spent over one timed section.
type window struct {
	seconds    float64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
	cpuSeconds float64
	steal      float64 // host steal ticks, from /proc/stat
	ticks      float64 // all host cpu ticks
}

func (w *window) add(o window) {
	w.seconds += o.seconds
	w.allocBytes += o.allocBytes
	w.mallocs += o.mallocs
	w.gcCycles += o.gcCycles
	w.gcPauseNs += o.gcPauseNs
	w.cpuSeconds += o.cpuSeconds
	w.steal += o.steal
	w.ticks += o.ticks
}

// measure runs f and returns what the process and the host spent meanwhile.
// The MemStats reads stop the world, so they sit outside the wall-clock
// interval.
func measure(f func()) window {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	steal0, ticks0 := hostTicks()
	t0 := time.Now()
	f()
	sec := time.Since(t0).Seconds()
	steal1, ticks1 := hostTicks()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return window{
		seconds:    sec,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
		cpuSeconds: cpu1 - cpu0,
		steal:      steal1 - steal0,
		ticks:      ticks1 - ticks0,
	}
}

// cpuSeconds is the user plus system time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostTicks reads the aggregate cpu line of /proc/stat: the steal column and
// the sum of all columns. Both are 0 where the file is missing.
func hostTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest columns are already counted inside user and nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// resetPeakRSS sets the kernel's high-water mark of the resident set back to
// the current resident set (writing 5 to clear_refs does that and nothing
// else), so that peakRSSMB reads the peak of one section of the run. Where
// the write is refused the mark keeps rising and every later section reads
// the peak of the process so far.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads VmHWM of /proc/self/status in MB; 0 where /proc is missing.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if fs := strings.Fields(rest); len(fs) >= 1 {
				if kb, err := strconv.ParseFloat(fs[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// envStamp describes the host a run was taken on, for the report header.
func envStamp() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("cores=%d gomaxprocs=%d engine_workers=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), engineWorkers, runtime.Version(), cpu, commit)
}
