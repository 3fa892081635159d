// Package stats provides small latency/throughput measurement helpers for
// the experiment harness: an exact-quantile reservoir for the moderate
// sample counts the simulations produce, plus helpers for formatting.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Histogram collects duration samples and reports quantiles. It stores
// samples exactly (experiment sample counts are small); not safe for
// concurrent use — aggregate per worker and Merge.
type Histogram struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(d time.Duration) {
	h.samples = append(h.samples, d)
	h.sorted = false
}

// Merge folds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	h.samples = append(h.samples, other.samples...)
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// NearestRank is the one rank rule every quantile in the tree uses: the
// zero-based index of the q-quantile among n > 0 sorted samples,
// ceil(q·n) − 1, clamped to [0, n−1] (so q <= 0 is the minimum and q >= 1
// the maximum).
func NearestRank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank, or 0 for
// an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	return h.samples[NearestRank(q, len(h.samples))]
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	return h.samples[len(h.samples)-1]
}

// Summary formats mean/p50/p99/max in microseconds.
func (h *Histogram) Summary() string {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return fmt.Sprintf("mean=%.1fus p50=%.1fus p99=%.1fus max=%.1fus",
		us(h.Mean()), us(h.Quantile(0.5)), us(h.Quantile(0.99)), us(h.Max()))
}
