package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
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

// metric renders s's /metrics exposition in-process and returns one
// series' value.
func metric(t *testing.T, s *Server, series string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := s.metrics.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return promValue(t, sb.String(), series)
}

// TestMetricsAndXTiming drives a fresh-vs-cached /run pair on the real
// engine and checks the whole observability surface agrees with
// itself: X-Timing parses and matches the executed-vs-cached shape,
// and /metrics carries the stage and request histograms with counts
// that reconcile with the executions and cache counters.
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

	// The execute stage's time is recorded, and nothing is observed
	// under an endpoint that served nothing.
	if sum := promValue(t, text, `thermbal_stage_duration_seconds_sum{stage="execute"}`); sum <= 0 {
		t.Errorf("execute stage sum = %g s, want > 0", sum)
	}
	for _, o := range outcomeNames {
		if n := promValue(t, text, `thermbal_request_duration_seconds_count{endpoint="matrix",outcome="`+o+`"}`); n != 0 {
			t.Errorf("matrix %s requests = %g, want 0", o, n)
		}
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

// TestMetricsServeEveryCounter reads, from /metrics alone, every
// counter, gauge and configured limit the service keeps, on a server
// with a durable store and quotas after one executed and one cached
// /run.
func TestMetricsServeEveryCounter(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	_, ts := newTestServer(t, Config{
		Store:          st,
		CacheEntries:   11,
		JobWorkers:     2,
		QueueDepth:     7,
		MaxSims:        3,
		MaxPendingSimS: 40,
		QuotaRPS:       3,
		QuotaBurst:     5,
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})
	for range 2 {
		if resp, b := do(t, http.MethodPost, ts.URL+"/run", shortRun); resp.StatusCode != http.StatusOK {
			t.Fatalf("/run: %d %s", resp.StatusCode, b)
		}
	}
	_, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	text := string(body)

	want := map[string]float64{
		"thermbal_executions_total":      1,
		"thermbal_coalesced_total":       0,
		"thermbal_inflight":              0,
		"thermbal_cache_hits_total":      1,
		"thermbal_cache_misses_total":    1,
		"thermbal_cache_evictions_total": 0,
		"thermbal_cache_entries":         1,
		`thermbal_request_duration_seconds_count{endpoint="run",outcome="miss"}`: 1,
		`thermbal_request_duration_seconds_count{endpoint="run",outcome="hit"}`:  1,
		`thermbal_stage_duration_seconds_count{stage="store"}`:                   1,

		"thermbal_schema_version":          experiment.SchemaVersion,
		"thermbal_max_sims":                3,
		"thermbal_max_pending_sim_seconds": 40,
		"thermbal_job_queue_capacity":      7,
		"thermbal_job_workers":             2,
		"thermbal_cache_capacity":          11,
		"thermbal_quota_rps":               3,
		"thermbal_quota_burst":             5,

		"thermbal_store_serves_total":  0,
		"thermbal_store_errors_total":  0,
		"thermbal_proofs_served_total": 0,
		"thermbal_proof_errors_total":  0,

		"thermbal_jobs_recovered_total":                     0,
		`thermbal_shed_total{reason="cost"}`:                0,
		`thermbal_shed_total{reason="queue_full"}`:          0,
		"thermbal_pending_sim_seconds":                      0,
		`thermbal_exec_queue_depth{priority="interactive"}`: 0,
		`thermbal_exec_queue_depth{priority="bulk"}`:        0,
		"thermbal_exec_slots_free":                          3,
		"thermbal_quota_denied_total":                       0,
		"thermbal_quota_tenants":                            1,
	}
	for _, state := range []JobState{JobPending, JobRunning, JobDone, JobFailed, JobCancelled} {
		want[`thermbal_jobs{state="`+string(state)+`"}`] = 0
	}
	sst := st.Stats()
	if sst.Records != 1 || sst.Puts != 1 {
		t.Fatalf("store stats = %+v, want the one executed run stored", sst)
	}
	for _, f := range storeFamilies {
		want[f.name] = f.value(sst)
	}
	for series, v := range want {
		if got := promValue(t, text, series); got != v {
			t.Errorf("%s = %g, want %g", series, got, v)
		}
	}
	if up := promValue(t, text, "thermbal_uptime_seconds"); up <= 0 {
		t.Errorf("thermbal_uptime_seconds = %g, want > 0", up)
	}
}

// TestMetricReferenceTable holds docs/OPERATIONS.md's metric reference
// to what /metrics renders: every family a server with a store, quotas
// and a timing log renders must be listed with its type and labels,
// and every listed family must be rendered.
func TestMetricReferenceTable(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	s := New(Config{Store: st, QuotaRPS: 1, TimingLog: obs.NewCSVLogger(io.Discard, false)})
	defer s.Close()
	var sb strings.Builder
	if err := s.metrics.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	labels := map[string][]string{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			kinds[name] = kind
			continue
		}
		name, set, ok := strings.Cut(line, "{")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, cut := strings.CutSuffix(name, suffix); cut && kinds[base] == "histogram" {
				name = base
			}
		}
		for _, pair := range strings.Split(set[:strings.Index(set, "}")], ",") {
			l, _, _ := strings.Cut(pair, "=")
			if l != "le" && !slices.Contains(labels[name], l) {
				labels[name] = append(labels[name], l)
			}
		}
	}
	// family name -> "type | labels", as the table spells them.
	rendered := map[string]string{}
	for name, kind := range kinds {
		ls := "—"
		if len(labels[name]) > 0 {
			ls = "`" + strings.Join(labels[name], "`, `") + "`"
		}
		rendered[name] = kind + " | " + ls
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		rest, ok := strings.CutPrefix(line, "| `thermbal_")
		if !ok {
			continue
		}
		cells := strings.Split(rest, " | ")
		name := "thermbal_" + strings.TrimSuffix(cells[0], "`")
		if len(cells) < 4 {
			t.Errorf("table row for %s has %d cells, want family | type | labels | meaning", name, len(cells)+1)
			continue
		}
		listed[name] = true
		got, ok := rendered[name]
		switch {
		case !ok:
			t.Errorf("OPERATIONS.md lists %s, which /metrics never renders", name)
		case got != cells[1]+" | "+cells[2]:
			t.Errorf("OPERATIONS.md lists %s as %q, /metrics renders %q", name, cells[1]+" | "+cells[2], got)
		}
	}
	for name := range rendered {
		if !listed[name] {
			t.Errorf("/metrics renders %s, missing from OPERATIONS.md's metric reference", name)
		}
	}
}
