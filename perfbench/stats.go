package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile: the number of
// observations a tail percentile rests on.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// ratio is a/b, or 0 when the base is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rtStats is one reading of the Go runtime's own counters.
type rtStats struct {
	allocBytes float64 // cumulative heap allocation
	gcCycles   float64
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative available CPU seconds (GOMAXPROCS × wall)
	clock      cpuClock
}

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtStats{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		clock:      readCPUClock(),
	}
}

// cpuClock is one reading of the clocks the steal correction needs: the
// CPU seconds this process has run and the seconds the host has stolen
// from this machine's CPUs, that is, time they had work ready while the
// host ran another guest. The kernel leaves stolen time out of a
// process's CPU time. iowait, the seconds the CPUs idled with disk I/O
// outstanding, is only printed: disk waits are part of what users wait on.
type cpuClock struct{ cpu, steal, iowait float64 }

func readCPUClock() cpuClock {
	iowait, steal := procStat()
	return cpuClock{processCPU(), steal, iowait}
}

// unstolen is the share of the CPU time this process wanted between a and
// b that the host let it run: cpu / (cpu + steal). This process is the
// only busy one on the machine, and an idle CPU accrues no steal, so the
// steal is time its threads waited. Scaling a wall time by the share
// removes that wait; without steal (a dedicated machine) the share is 1.
func unstolen(a, b cpuClock) float64 {
	cpu, steal := b.cpu-a.cpu, b.steal-a.steal
	if cpu <= 0 || steal <= 0 {
		return 1
	}
	return cpu / (cpu + steal)
}

// processCPU is the CPU time this process has used, user plus system, in
// seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// procStat reads the iowait and steal columns of /proc/stat's all-CPU
// line, in seconds; 0 where the kernel does not report them.
func procStat() (iowait, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	io, _ := strconv.ParseFloat(f[5], 64)
	st, _ := strconv.ParseFloat(f[8], 64)
	return io / 100, st / 100 // USER_HZ
}

// readGauge reads one uint64 runtime metric.
func readGauge(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// heapBytes is the heap object bytes right now, live or not yet swept.
func heapBytes() float64 { return readGauge("/memory/classes/heap/objects:bytes") }
