package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/obs"
	"thermbal/internal/sim"
)

// promValue extracts one series value from a Prometheus text
// exposition (the line `series value`).
func promValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s absent from /metrics", series)
	return 0
}

// TestMetricsAndXTiming drives a fresh-vs-cached /run pair on the real
// engine and checks the whole observability surface agrees with
// itself: X-Timing parses and matches the executed-vs-cached shape,
// /metrics carries the stage histograms with counts that reconcile
// with /stats, and the /stats latency block reports the same
// observations as quantiles.
func TestMetricsAndXTiming(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, _ := do(t, http.MethodPost, ts.URL+"/run", shortRun)
	if st := resp.Header.Get("X-Cache"); st != "miss" {
		t.Fatalf("cold X-Cache = %q, want miss", st)
	}
	coldPairs, err := obs.ParseHeaderValue(resp.Header.Get("X-Timing"))
	if err != nil {
		t.Fatalf("cold X-Timing %q: %v", resp.Header.Get("X-Timing"), err)
	}
	for _, name := range obs.StageNames {
		if _, ok := coldPairs[name]; !ok {
			t.Errorf("cold X-Timing missing stage %q", name)
		}
	}
	if coldPairs["execute"] <= 0 {
		t.Errorf("cold X-Timing execute = %d µs, want > 0", coldPairs["execute"])
	}
	if coldPairs["total"] < coldPairs["execute"] {
		t.Errorf("cold X-Timing total %d µs < execute %d µs", coldPairs["total"], coldPairs["execute"])
	}

	resp, _ = do(t, http.MethodPost, ts.URL+"/run", shortRun)
	if st := resp.Header.Get("X-Cache"); st != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", st)
	}
	hitPairs, err := obs.ParseHeaderValue(resp.Header.Get("X-Timing"))
	if err != nil {
		t.Fatalf("cached X-Timing: %v", err)
	}
	for _, name := range obs.StageNames {
		if _, ok := hitPairs[name]; !ok {
			t.Errorf("cached X-Timing missing stage %q", name)
		}
	}
	// A cache hit never entered the engine, and its header must not
	// claim otherwise.
	if hitPairs["execute"] != 0 || hitPairs["queue"] != 0 {
		t.Errorf("cached X-Timing claims execute=%d queue=%d µs, want 0/0",
			hitPairs["execute"], hitPairs["queue"])
	}
	if hitPairs["total"] <= 0 {
		t.Errorf("cached X-Timing total = %d µs, want > 0", hitPairs["total"])
	}

	resp, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	text := string(body)
	for series, want := range map[string]float64{
		`thermbal_stage_duration_seconds_count{stage="execute"}`:                 1,
		`thermbal_stage_duration_seconds_count{stage="encode"}`:                  1,
		`thermbal_stage_duration_seconds_count{stage="queue"}`:                   1,
		`thermbal_request_duration_seconds_count{endpoint="run",outcome="miss"}`: 1,
		`thermbal_request_duration_seconds_count{endpoint="run",outcome="hit"}`:  1,
		`thermbal_requests_total{endpoint="run",outcome="miss"}`:                 1,
		`thermbal_requests_total{endpoint="run",outcome="hit"}`:                  1,
		`thermbal_executions_total`:                                              1,
		`thermbal_cache_hits_total`:                                              1,
		`thermbal_cache_misses_total`:                                            1,
	} {
		if got := promValue(t, text, series); got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	// Every stage histogram is rendered, observed or not.
	for _, stage := range obs.StageNames {
		promValue(t, text, `thermbal_stage_duration_seconds_count{stage="`+stage+`"}`)
	}
	// A memory-only server must not render store families.
	if strings.Contains(text, "thermbal_store_") {
		t.Error("/metrics renders store series on a store-less server")
	}

	// /stats, fetched over HTTP, reports the same counts as /metrics.
	var stats StatsDoc
	_, sb := do(t, http.MethodGet, ts.URL+"/stats", "")
	if err := json.Unmarshal(sb, &stats); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	if stats.Executions != 1 || stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Errorf("/stats executions %d, hits %d, misses %d; want 1, 1, 1",
			stats.Executions, stats.Cache.Hits, stats.Cache.Misses)
	}
	lat := stats.Latency
	if lat.Run.Count != 2 {
		t.Errorf("latency.run.count = %d, want 2", lat.Run.Count)
	}
	if lat.Execute.Count != 1 || lat.Execute.P50Ms <= 0 {
		t.Errorf("latency.execute = %+v, want count 1, p50 > 0", lat.Execute)
	}
	if lat.Run.P99Ms < lat.Run.P50Ms {
		t.Errorf("latency.run p99 %g < p50 %g", lat.Run.P99Ms, lat.Run.P50Ms)
	}
	if lat.Matrix.Count != 0 {
		t.Errorf("latency.matrix.count = %d, want 0 (no matrix requests)", lat.Matrix.Count)
	}
}

// TestErrorRequestsRecorded: a request that fails canonicalization is
// still observed, under the error outcome — the metrics must not lose
// the failures.
func TestErrorRequestsRecorded(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := do(t, http.MethodPost, ts.URL+"/run", `{"scenario":"nope-xyz"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad scenario: status %d", resp.StatusCode)
	}
	_, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if got := promValue(t, string(body), `thermbal_requests_total{endpoint="run",outcome="error"}`); got != 1 {
		t.Errorf(`requests_total{outcome="error"} = %g, want 1`, got)
	}
}

// TestTimingLogCSV: with a timing log configured, every /run request
// appends one CSV record whose outcome and stage columns match what
// the response headers said.
func TestTimingLogCSV(t *testing.T) {
	var sb strings.Builder
	cfg := Config{TimingLog: obs.NewCSVLogger(&sb, true)}
	_, ts := newTestServer(t, cfg)
	do(t, http.MethodPost, ts.URL+"/run", shortRun)
	do(t, http.MethodPost, ts.URL+"/run", shortRun)

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("timing log has %d lines, want header + 2 records:\n%s", len(lines), sb.String())
	}
	if lines[0] != obs.CSVHeader {
		t.Errorf("header = %q, want %q", lines[0], obs.CSVHeader)
	}
	for i, wantOutcome := range []string{"miss", "hit"} {
		f := strings.Split(lines[i+1], ",")
		if len(f) != 9 {
			t.Fatalf("record %d has %d fields: %q", i, len(f), lines[i+1])
		}
		if f[1] != "run" || f[2] != wantOutcome {
			t.Errorf("record %d = endpoint %q outcome %q, want run/%s", i, f[1], f[2], wantOutcome)
		}
		execUs, err := strconv.Atoi(f[5])
		if err != nil {
			t.Fatalf("record %d execute_us %q: %v", i, f[5], err)
		}
		if wantOutcome == "miss" && execUs <= 0 {
			t.Errorf("miss record execute_us = %d, want > 0", execUs)
		}
		if wantOutcome == "hit" && execUs != 0 {
			t.Errorf("hit record execute_us = %d, want 0", execUs)
		}
		if total, _ := strconv.Atoi(f[8]); total <= 0 {
			t.Errorf("record %d total_us = %q, want > 0", i, f[8])
		}
	}
}

// TestObserveRequestZeroAllocs asserts the entire per-request
// recording cost on the cached path — outcome lookup, histogram
// observe, counter increment — allocates nothing. This is the
// invariant that lets the observability layer sit on the hot path.
func TestObserveRequestZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := New(Config{})
	defer s.Close()
	rec := obs.TimingRecord{Outcome: "hit", Total: 5 * time.Millisecond}
	allocs := testing.AllocsPerRun(1000, func() {
		s.metrics.observeRequest(epRun, &rec)
	})
	if allocs != 0 {
		t.Errorf("observeRequest allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkCachedRun measures the full cached-/run path through the
// handler — decode, canonicalize, cache hit, X-Timing header, metrics
// recording — the path the observability work must not regress.
func BenchmarkCachedRun(b *testing.B) {
	s := New(Config{
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})
	defer s.Close()
	h := s.Handler()

	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(shortRun)))
	if st := warm.Header().Get("X-Cache"); st != "miss" {
		b.Fatalf("warm-up X-Cache = %q, want miss", st)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(shortRun)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// TestWarmupCheckpointMetrics checks the warm-up checkpoint cache's
// families on /metrics, and that a /run whose warm-up was restored
// serves the same bytes as the first run of its warm-up. The cache is
// process-wide, so counts are compared as deltas; the warm-up window is
// one no other test uses.
func TestWarmupCheckpointMetrics(t *testing.T) {
	const (
		runA = `{"scenario":"video-decoder","policy":"stop-go","delta":3,"warmup_s":0.4137,"measure_s":0.2}`
		runB = `{"scenario":"video-decoder","policy":"tb","delta":3,"warmup_s":0.4137,"measure_s":0.2}`
	)
	scrape := func(ts string) (hits, misses float64, text string) {
		_, body := do(t, http.MethodGet, ts+"/metrics", "")
		text = string(body)
		return promValue(t, text, "thermbal_warmup_checkpoint_hits_total"),
			promValue(t, text, "thermbal_warmup_checkpoint_misses_total"), text
	}
	_, first := newTestServer(t, Config{})
	hits0, misses0, _ := scrape(first.URL)
	resp, want := do(t, http.MethodPost, first.URL+"/run", runB)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run: %d %s", resp.StatusCode, want)
	}
	hits, misses, text := scrape(first.URL)
	if hits+misses < hits0+misses0+1 {
		t.Errorf("warm-up hits+misses %g after a run, want ≥ %g", hits+misses, hits0+misses0+1)
	}
	if promValue(t, text, "thermbal_warmup_checkpoint_bytes") <= 0 {
		t.Error("no checkpoint bytes held after a warm-up")
	}
	promValue(t, text, "thermbal_warmup_checkpoint_evictions_total")

	// A second server has an empty result cache but shares the process's
	// checkpoints: both runs restore the warm-up runB left above.
	_, second := newTestServer(t, Config{})
	hits0, _, _ = scrape(second.URL)
	for _, body := range []string{runA, runB} {
		resp, got := do(t, http.MethodPost, second.URL+"/run", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("/run %s: %d, X-Cache %q", body, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if body == runB && string(got) != string(want) {
			t.Errorf("restored warm-up served other bytes:\n first:    %s\n restored: %s", want, got)
		}
	}
	if hits, _, _ := scrape(second.URL); hits < hits0+2 {
		t.Errorf("warm-up hits %g after two runs sharing a warm-up, want ≥ %g", hits, hits0+2)
	}
}
