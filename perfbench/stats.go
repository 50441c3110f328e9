package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailBeyond is the number of samples that must lie beyond the reported
// tail percentile.
const tailBeyond = 10

// tailLadder holds the percentiles the tail is chosen from, highest first.
// A fixed ladder keeps one workload's tail at the same percentile from run
// to run, so that medians over runs compare like with like.
var tailLadder = []float64{99, 95, 90, 75, 50}

// median returns the median of xs (the mean of the middle pair when the
// count is even). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the highest percentile of tailLadder that has at least
// tailBeyond samples above it, as its nearest-rank value, and the number of
// samples above that rank. ok is false when no percentile of the ladder has
// that many. xs is sorted in place.
func tail(xs []float64) (v, pct float64, beyond int, ok bool) {
	n := len(xs)
	sort.Float64s(xs)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank >= 1 && n-rank >= tailBeyond {
			return xs[rank-1], p, n - rank, true
		}
	}
	return 0, 0, 0, false
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// runtimeSample is a reading of the Go runtime counters the per-layer view
// reports as deltas over a timed window.
type runtimeSample struct {
	allocBytes float64 // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative available CPU seconds
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		case metrics.KindFloat64:
			return m.Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0]), gcCPU: val(s[1]), totalCPU: val(s[2])}
}

// runtimeDelta is the runtime's work over a window: bytes allocated and the
// GC's share of the available CPU.
type runtimeDelta struct {
	allocBytes float64
	gcShare    float64
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	d := runtimeDelta{allocBytes: b.allocBytes - a.allocBytes}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcShare = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}
