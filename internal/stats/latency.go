// Package stats provides the measurement plumbing for the simulator:
// exact percentile latency recording, time-weighted state accounting,
// and time-series sampling for figure regeneration.
package stats

import (
	"fmt"
	"math"
	"slices"

	"ncap/internal/sim"
)

// LatencyRecorder accumulates request latencies and answers percentile
// queries exactly (the sample counts in these simulations are small enough
// that storing every observation is cheaper than sketching, and exactness
// keeps the reproduction honest).
type LatencyRecorder struct {
	samples []sim.Duration
	sorted  bool
	sum     float64
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{}
}

// Record adds one latency observation. Negative latencies indicate a
// bookkeeping bug upstream and panic loudly.
func (l *LatencyRecorder) Record(d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("stats: negative latency %d", d))
	}
	l.samples = append(l.samples, d)
	l.sorted = false
	l.sum += float64(d)
}

// MergeFrom replaces l's observations with every observation of recs,
// copied in argument order. l's buffer is reused when it holds the total
// sample count, and is otherwise replaced by one allocation of exactly
// that count. The sum is re-accumulated sample by sample in that same
// order, so Mean is bit-identical to recording the samples one at a time.
// l must not be one of recs.
func (l *LatencyRecorder) MergeFrom(recs ...*LatencyRecorder) {
	n := 0
	for _, r := range recs {
		n += len(r.samples)
	}
	if cap(l.samples) < n {
		l.samples = make([]sim.Duration, 0, n)
	}
	l.Reset()
	for _, r := range recs {
		l.samples = append(l.samples, r.samples...)
	}
	for _, d := range l.samples {
		l.sum += float64(d)
	}
}

// Grow makes room for n more observations, so the next n Records do not
// reallocate.
func (l *LatencyRecorder) Grow(n int) { l.samples = slices.Grow(l.samples, n) }

// Count returns the number of observations.
func (l *LatencyRecorder) Count() int { return len(l.samples) }

// Mean returns the average latency, or 0 with no samples.
func (l *LatencyRecorder) Mean() sim.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	return sim.Duration(l.sum / float64(len(l.samples)))
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method. It returns 0 with no samples.
func (l *LatencyRecorder) Percentile(p float64) sim.Duration {
	n := len(l.samples)
	if n == 0 {
		return 0
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range (0,100]", p))
	}
	l.sort()
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return l.samples[rank-1]
}

// Max returns the largest observation, or 0 with no samples.
func (l *LatencyRecorder) Max() sim.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	return l.samples[len(l.samples)-1]
}

// Min returns the smallest observation, or 0 with no samples.
func (l *LatencyRecorder) Min() sim.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	return l.samples[0]
}

// Summary bundles the distribution points the paper reports.
type Summary struct {
	Count              int
	Mean               sim.Duration
	P50, P90, P95, P99 sim.Duration
	Max                sim.Duration
}

// Summarize returns the standard distribution summary.
func (l *LatencyRecorder) Summarize() Summary {
	return Summary{
		Count: l.Count(),
		Mean:  l.Mean(),
		P50:   l.Percentile(50),
		P90:   l.Percentile(90),
		P95:   l.Percentile(95),
		P99:   l.Percentile(99),
		Max:   l.Max(),
	}
}

// Samples returns the raw observations (order unspecified). The returned
// slice aliases internal storage; callers must not modify it.
func (l *LatencyRecorder) Samples() []sim.Duration { return l.samples }

// Reset discards all observations.
func (l *LatencyRecorder) Reset() {
	l.samples = l.samples[:0]
	l.sorted = false
	l.sum = 0
}

func (l *LatencyRecorder) sort() {
	if !l.sorted {
		slices.Sort(l.samples)
		l.sorted = true
	}
}
