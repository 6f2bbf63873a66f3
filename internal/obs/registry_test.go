package obs

import (
	"strings"
	"testing"
	"time"
)

// Golden test of the Prometheus text exposition format: families in
// registration order, HELP/TYPE headers, cumulative buckets with le
// labels, _sum/_count, label escaping, integer-vs-float rendering.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("thermbal_stage_duration_seconds", "Time spent per request stage.",
		[]float64{0.001, 0.01}, L("stage", "execute"))
	h2 := r.NewHistogram("thermbal_stage_duration_seconds", "Time spent per request stage.",
		[]float64{0.001, 0.01}, L("stage", "encode"))
	c := r.NewCounter("thermbal_requests_total", "Requests served.",
		L("endpoint", "run"), L("outcome", "hit"))
	r.NewGaugeFunc("thermbal_cache_entries", "Cached bodies.", func() float64 { return 7 })

	h.Observe(500 * time.Microsecond) // first bucket
	h.Observe(2 * time.Millisecond)   // second bucket
	h.Observe(3 * time.Second)        // +Inf bucket
	h2.Observe(500 * time.Microsecond)
	for range 42 {
		c.Inc()
	}

	const want = `# HELP thermbal_stage_duration_seconds Time spent per request stage.
# TYPE thermbal_stage_duration_seconds histogram
thermbal_stage_duration_seconds_bucket{stage="execute",le="0.001"} 1
thermbal_stage_duration_seconds_bucket{stage="execute",le="0.01"} 2
thermbal_stage_duration_seconds_bucket{stage="execute",le="+Inf"} 3
thermbal_stage_duration_seconds_sum{stage="execute"} 3.0025
thermbal_stage_duration_seconds_count{stage="execute"} 3
thermbal_stage_duration_seconds_bucket{stage="encode",le="0.001"} 1
thermbal_stage_duration_seconds_bucket{stage="encode",le="0.01"} 1
thermbal_stage_duration_seconds_bucket{stage="encode",le="+Inf"} 1
thermbal_stage_duration_seconds_sum{stage="encode"} 0.0005
thermbal_stage_duration_seconds_count{stage="encode"} 1
# HELP thermbal_requests_total Requests served.
# TYPE thermbal_requests_total counter
thermbal_requests_total{endpoint="run",outcome="hit"} 42
# HELP thermbal_cache_entries Cached bodies.
# TYPE thermbal_cache_entries gauge
thermbal_cache_entries 7
`
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("esc_total", "t", L("v", "a\"b\\c\nd"))
	c.Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("escaped label missing from:\n%s", sb.String())
	}
}
