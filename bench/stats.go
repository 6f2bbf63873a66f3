package bench

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the closest ranks. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile of
// xs exactly as Python's statistics.quantiles(xs, n=4) computes them
// (the default "exclusive" method), which is how run-to-run spread is
// judged against the bounds in BENCHMARK.json. A single sample is its
// own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), len(s)-1)
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

// Fixed tail percentiles of the diagnostics, so runs stay comparable.
// A batch run holds 25–60 passes, so p75 is the highest pass
// percentile with ten of them beyond it. A service phase holds
// thousands of requests; its p90 and p99 are reported beside the gated
// p50.
const (
	batchTailP   = 75
	serviceTailP = 90
)

// tailPercentile is the highest of p90 and p75 that leaves at least ten
// of n samples beyond it, else p50. A run whose sample count does not
// support its workload's fixed tail percentile says so in its notes.
func tailPercentile(n int) int {
	for _, p := range []int{90, 75} {
		rank := (p*n + 99) / 100 // ceil(p·n/100)
		if n-rank >= 10 {
			return p
		}
	}
	return 50
}

// tailNote reports a tail percentile the sample count cannot support.
func tailNote(rec *recorder, what string, p, n int) {
	if tailPercentile(n) < p {
		rec.note(fmt.Sprintf("%s: p%d has fewer than ten of %d samples beyond it", what, p, n))
	}
}

// durationsUs converts durations to float microseconds.
func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}
