package obs

import (
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency bucket upper bounds in seconds:
// 100 µs up through one minute in a 1-2.5-5 progression. They cover
// everything the service does — a cache hit is well under the first
// bound, a manycore sweep cell sits in the seconds range — while
// keeping the per-histogram footprint (one cache line of counts per
// few buckets) small enough to register dozens of them.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram. The bucket bounds are
// frozen at registration, which is what makes concurrent observation
// lock-free: Observe is two atomic adds (a bucket count and the sum)
// with no allocation and no mutex, so it can sit on the cached-request
// hot path. Counts are per-bucket (not cumulative); rendering
// cumulates on read.
type Histogram struct {
	labels []Label
	// bounds are the inclusive upper bounds in seconds; observations
	// above the last bound land in the implicit +Inf bucket.
	bounds []float64
	// counts has len(bounds)+1 entries; the last is the +Inf bucket.
	counts []atomic.Uint64
	// sumNanos accumulates observed durations in integer nanoseconds —
	// atomically addable, and exact for any realistic uptime (2^63 ns
	// is ~292 years).
	sumNanos atomic.Int64
}

func newHistogram(bounds []float64, labels []Label) *Histogram {
	return &Histogram{
		labels: labels,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one duration. Lock-free and allocation-free.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	// Linear scan: the bucket lists are short (≤ ~20) and the scan is
	// branch-predictable; a binary search saves nothing measurable and
	// costs mispredictions on the common small-latency observations.
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
}

// Sum returns the sum of all observed durations in seconds.
func (h *Histogram) Sum() float64 {
	return time.Duration(h.sumNanos.Load()).Seconds()
}

// snapshot copies the per-bucket counts (still non-cumulative). The
// copy is not an atomic cut across buckets — concurrent observations
// may straddle it — but every individual count is a real value, which
// is all a scrape needs.
func (h *Histogram) snapshot() []uint64 {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts
}
