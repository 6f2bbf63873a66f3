// Package metrics implements the statistics the paper evaluates
// (Section 5): spatial and temporal variance of core temperatures,
// deadline-miss accounting, and migration-rate summaries. Streaming
// (Welford) accumulators keep the collection O(1) per sample.
package metrics

import (
	"math"

	"thermbal/internal/ckpt"
)

// Welford is a numerically stable streaming mean/variance accumulator.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds a sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean))
}

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// SpatialStdDev returns the standard deviation across the given
// per-core values at one instant (population formula, as the cores are
// the whole population).
func SpatialStdDev(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var mean float64
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(values)))
}

// TempCollector accumulates the paper's temperature metrics from
// periodic per-core samples.
type TempCollector struct {
	// Spatial tracks the instantaneous across-core standard deviation
	// over time: its Mean() is the "temperature standard deviation" of
	// Figures 7 and 9.
	Spatial Welford
	// Gradient tracks the instantaneous hottest-coldest spread.
	Gradient Welford
	// PerCore tracks each core's temperature over time; its StdDev is
	// the temporal variance metric.
	PerCore []Welford
	// Pooled folds every (core, time) sample into one accumulator: its
	// StdDev captures spatial and temporal deviation together — the
	// paper's combined "temperature standard deviation" metric
	// (Section 5: "spatial and temporal variance of the temperatures").
	Pooled Welford
	// MaxTemp is the hottest sample seen on any core.
	MaxTemp float64
}

// NewTempCollector creates a collector for n cores.
func NewTempCollector(n int) *TempCollector {
	return &TempCollector{PerCore: make([]Welford, n), MaxTemp: math.Inf(-1)}
}

// Ckpt writes or reads the collector's accumulators.
func (tc *TempCollector) Ckpt(c *ckpt.Codec) {
	tc.Spatial.ckpt(c)
	tc.Gradient.ckpt(c)
	tc.Pooled.ckpt(c)
	c.Len(len(tc.PerCore))
	for i := range tc.PerCore {
		tc.PerCore[i].ckpt(c)
	}
	c.Float(&tc.MaxTemp)
}

func (w *Welford) ckpt(c *ckpt.Codec) {
	c.Int64(&w.n)
	c.Float(&w.mean)
	c.Float(&w.m2)
}

// Sample folds one per-core temperature snapshot.
func (tc *TempCollector) Sample(temps []float64) {
	tc.Spatial.Add(SpatialStdDev(temps))
	min, max := math.Inf(1), math.Inf(-1)
	for c, t := range temps {
		tc.PerCore[c].Add(t)
		tc.Pooled.Add(t)
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	tc.Gradient.Add(max - min)
	if max > tc.MaxTemp {
		tc.MaxTemp = max
	}
}

// MeanSpatialStdDev is the time-averaged across-core deviation.
func (tc *TempCollector) MeanSpatialStdDev() float64 { return tc.Spatial.Mean() }

// PooledStdDev is the headline Figure 7/9 metric: the standard
// deviation over every (core, time) temperature sample, capturing both
// spatial imbalance and temporal swings/drift.
func (tc *TempCollector) PooledStdDev() float64 { return tc.Pooled.StdDev() }

// MeanGradient is the time-averaged hottest-coldest spread.
func (tc *TempCollector) MeanGradient() float64 { return tc.Gradient.Mean() }

// MeanTemporalStdDev averages the per-core temporal deviations.
func (tc *TempCollector) MeanTemporalStdDev() float64 {
	if len(tc.PerCore) == 0 {
		return 0
	}
	var s float64
	for i := range tc.PerCore {
		s += tc.PerCore[i].StdDev()
	}
	return s / float64(len(tc.PerCore))
}
