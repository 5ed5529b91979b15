package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vihot/internal/obs"
)

// quantile is the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// linear interpolation between order statistics; NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	r := q * float64(n-1)
	lo := int(math.Floor(r))
	hi := min(lo+1, n-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(r-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// tailPercentiles are the tail ranks a report may quote.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 50}

// tailPercentile picks the highest percentile of tailPercentiles that
// has at least ten of n samples beyond it — the highest the sample
// supports — or 0 when not even the median does.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// dist summarizes one sample: its size, median and supported tail.
type dist struct {
	n        int
	p50      float64
	tailP    float64 // the percentile tail quotes
	tail     float64
	p95, p99 float64
}

func summarize(xs []float64) dist {
	s := sortedCopy(xs)
	d := dist{n: len(s), p50: quantile(s, 0.5), p95: quantile(s, 0.95), p99: quantile(s, 0.99)}
	d.tailP = tailPercentile(len(s))
	d.tail = quantile(s, d.tailP/100)
	return d
}

func (d dist) String() string {
	return fmt.Sprintf("p50=%.4g p%g=%.4g (n=%d)", d.p50, d.tailP, d.tail, d.n)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is the machine-wide jiffy split from /proc/stat.
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	var h hostCPU
	// cpu user nice system idle iowait irq softirq steal [guest...]
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealPct is the share of all CPU time the hypervisor stole between
// two readings, in percent.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// bucketCounts reads the cumulative bucket counts of one histogram
// family from a registry's Prometheus rendering, so two readings can
// be subtracted into the histogram of a window.
func bucketCounts(reg *obs.Registry, name string) (bounds []float64, cum []uint64) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, nil
	}
	prefix := name + `_bucket{le="`
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		le, rest, ok := strings.Cut(line[len(prefix):], `"} `)
		if !ok {
			continue
		}
		b := math.Inf(1)
		if le != "+Inf" {
			b, _ = strconv.ParseFloat(le, 64)
		}
		c, _ := strconv.ParseUint(rest, 10, 64)
		bounds = append(bounds, b)
		cum = append(cum, c)
	}
	return bounds, cum
}

// windowQuantile estimates the q-quantile of the observations made
// between two bucketCounts readings, interpolating inside the bucket
// the way obs.Histogram.Quantile does; values in the overflow bucket
// clamp to the largest finite bound.
func windowQuantile(bounds []float64, before, after []uint64, q float64) float64 {
	if len(after) == 0 || len(before) != len(after) {
		return math.NaN()
	}
	total := float64(after[len(after)-1] - before[len(before)-1])
	if total == 0 {
		return math.NaN()
	}
	rank := q * total
	prev := 0.0
	for i := range after {
		cum := float64(after[i] - before[i])
		if cum >= rank && cum > prev {
			if math.IsInf(bounds[i], 1) {
				return bounds[i-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(rank-prev)/(cum-prev)
		}
		prev = cum
	}
	return bounds[len(bounds)-2]
}
