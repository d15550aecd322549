package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the q-quantile of sorted by nearest rank: the
// smallest sample with at least ⌈q·n⌉ samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[min(rank(len(sorted), q), len(sorted))-1]
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// epsilon keeps q·n from rounding up past a whole rank (0.999·10000).
func rank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n)-1e-9)))
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - rank(n, q) }

// reportable reports whether the q-quantile of n samples has at least
// minBeyond samples beyond it.
func reportable(n int, q float64) bool { return n > 0 && beyond(n, q) >= minBeyond }

// tailQuantiles are the tail percentiles the report prints, each only
// when it has minBeyond samples beyond it.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9}

// tailQ is the windowed tail percentile the report prints for the
// headline op. It is the highest percentile every workload has ten
// samples beyond. It is printed, not gated: between runs on a shared
// host it moved by up to 0.29 of its median, past any usable bound.
const tailQ = 0.95

// highestReportable returns the highest of the standard percentiles
// that n samples support, or 0 when none does.
func highestReportable(n int) float64 {
	for _, q := range append(tailQuantiles[:len(tailQuantiles):len(tailQuantiles)], 0.5) {
		if reportable(n, q) {
			return q
		}
	}
	return 0
}

// windowQuantiles splits latencies, in intended-send order, into at most
// maxWindows equal consecutive chunks of at least 2·minBeyond/(1−q)
// samples (so each chunk has twenty beyond its q-quantile) and returns
// each chunk's q-quantile in milliseconds. Their median is what a run
// reports: one disturbed second moves one chunk, not the figure. Fewer
// samples than one chunk form a single chunk.
func windowQuantiles(ordered []time.Duration, q float64, maxWindows int) []float64 {
	size := int(math.Ceil(2 * minBeyond / (1 - q)))
	k := max(1, min(maxWindows, len(ordered)/size))
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = newDist(ordered[i*len(ordered)/k : (i+1)*len(ordered)/k]).q(q)
	}
	return qs
}

// windowedRate splits [from, to) into n equal windows, sums each event's
// weight into the window holding its time, and returns the median
// window's rate per second.
func windowedRate(times []time.Duration, weights []float64, from, to time.Duration, n int) float64 {
	if to <= from || n < 1 {
		return 0
	}
	sums := make([]float64, n)
	width := (to - from) / time.Duration(n)
	for i, t := range times {
		if w := int((t - from) / width); t >= from && w < n {
			sums[w] += weights[i]
		}
	}
	return median(sums) / width.Seconds()
}

// dist is one op class's latency sample, in milliseconds.
type dist struct {
	ms []float64 // sorted
}

func newDist(ds []time.Duration) dist {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return dist{ms: ms}
}

func (d dist) n() int              { return len(d.ms) }
func (d dist) q(q float64) float64 { return quantile(d.ms, q) }
func (d dist) ok(q float64) bool   { return reportable(d.n(), q) }
func (d dist) mean() float64       { return mean(d.ms) }
func (d dist) String() string {
	top := highestReportable(d.n())
	if top == 0 {
		return fmt.Sprintf("n=%d (too few samples)", d.n())
	}
	return fmt.Sprintf("n=%d p50=%.3fms p%s=%.3fms mean=%.3fms", d.n(), d.q(0.5), pctLabel(top), d.q(top), d.mean())
}

func pctLabel(q float64) string {
	return fmt.Sprintf("%g", q*100)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
