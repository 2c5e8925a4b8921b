package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds is the process's user plus system CPU time over all
// threads, so work moved onto the collector or other goroutines counts.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rtSamples are read only from the benchmark's main goroutine.
var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

// heapAllocs is the cumulative number of bytes allocated on the heap.
func heapAllocs() uint64 {
	metrics.Read(rtSamples[:1])
	return rtSamples[0].Value.Uint64()
}

// runtimeCPU is the Go runtime's own CPU-time accounting.
type runtimeCPU struct{ gc, total, idle float64 }

func readRuntimeCPU() runtimeCPU {
	s := rtSamples[1:]
	metrics.Read(s)
	return runtimeCPU{gc: s[0].Value.Float64(), total: s[1].Value.Float64(), idle: s[2].Value.Float64()}
}

// gcFracSince is the share of busy CPU time the collector used since
// before.
func (c runtimeCPU) gcFracSince(before runtimeCPU) float64 {
	busy := (c.total - c.idle) - (before.total - before.idle)
	if busy <= 0 {
		return 0
	}
	return (c.gc - before.gc) / busy
}

// resetPeakRSS resets the kernel's peak-resident-set mark (VmHWM) to the
// current resident set.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// peakRSSMB reads VmHWM, the peak resident set since the last reset, in
// MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
