package loadgen

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubServer mimics thermservd's response surface: 200s with X-Cache
// and X-Timing headers, with optional scripted refusals.
func stubServer(t *testing.T, refuse func(n int) int) (*httptest.Server, func() (int, map[string]int)) {
	t.Helper()
	var (
		mu     sync.Mutex
		n      int
		bodies = map[string]int{}
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		n++
		seq := n
		bodies[string(b)]++
		mu.Unlock()
		if refuse != nil {
			if code := refuse(seq); code != 0 {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(code)
				return
			}
		}
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("X-Timing", "queue=0,coalesce=0,execute=1200,encode=40,store=0,total=1300")
		w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(ts.Close)
	return ts, func() (int, map[string]int) {
		mu.Lock()
		defer mu.Unlock()
		copied := map[string]int{}
		for k, v := range bodies {
			copied[k] = v
		}
		return n, copied
	}
}

func TestRunProducesReport(t *testing.T) {
	// Every 10th request is shed, every 11th quota-denied.
	ts, counts := stubServer(t, func(n int) int {
		switch {
		case n%10 == 0:
			return 503
		case n%11 == 0:
			return 429
		}
		return 0
	})

	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		RPS:      200,
		Warmup:   100 * time.Millisecond,
		Duration: 400 * time.Millisecond,
		Mix:      DefaultMix(),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measured == 0 || rep.Sent < rep.Measured {
		t.Fatalf("sent %d / measured %d", rep.Sent, rep.Measured)
	}
	if rep.AchievedRPS <= 0 {
		t.Errorf("achieved rps = %g", rep.AchievedRPS)
	}
	run := rep.Endpoints["run"]
	if run == nil || run.Count == 0 {
		t.Fatalf("run endpoint report = %+v", run)
	}
	if run.Latency.P50Ms <= 0 || run.Latency.P99Ms < run.Latency.P50Ms {
		t.Errorf("run quantiles = %+v", run.Latency)
	}
	if run.Errors != 0 {
		t.Errorf("run errors = %d, want 0 (refusals are not errors)", run.Errors)
	}
	totalShed, totalQuota := 0, 0
	for _, ep := range rep.Endpoints {
		totalShed += ep.Shed
		totalQuota += ep.Quota
	}
	if totalShed == 0 || totalQuota == 0 {
		t.Errorf("shed %d / quota %d, want both > 0 from the scripted refusals", totalShed, totalQuota)
	}
	if rep.Stages["execute"] == nil || rep.Stages["execute"].P50Ms <= 0 {
		t.Errorf("stages = %+v, want execute quantiles from X-Timing", rep.Stages)
	}
	if rep.Outcomes["hit"] == 0 {
		t.Errorf("outcomes = %+v, want X-Cache hits counted", rep.Outcomes)
	}

	// The Zipf skew must actually repeat keys: far fewer distinct
	// bodies than requests.
	nReq, bodies := counts()
	if len(bodies) >= nReq/2 {
		t.Errorf("%d distinct bodies over %d requests — no key repetition", len(bodies), nReq)
	}

	// The JSON document round-trips under the schema gate.
	b, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Measured != rep.Measured || back.SchemaVersion != SchemaVersion {
		t.Errorf("round-trip: measured %d version %d", back.Measured, back.SchemaVersion)
	}
	if !strings.HasPrefix(rep.Filename(), "LOAD_") || !strings.HasSuffix(rep.Filename(), ".json") {
		t.Errorf("filename = %q", rep.Filename())
	}
	if !strings.Contains(rep.Table(), "endpoint") {
		t.Errorf("table output missing header:\n%s", rep.Table())
	}
}

func TestDecodeReportRejectsUnknownSchema(t *testing.T) {
	if _, err := DecodeReport([]byte(`{"load_schema_version": 999}`)); err == nil {
		t.Fatal("unknown schema version accepted")
	}
}

// TestRunRefusesUnusableRate: a NaN, infinite or sub-nanosecond-interval
// arrival rate is an error before any arrival, not a ticker panic.
func TestRunRefusesUnusableRate(t *testing.T) {
	for _, rps := range []float64{math.NaN(), math.Inf(1), 2e9, 0, -1} {
		cfg := Config{BaseURL: "http://127.0.0.1:1", RPS: rps, Duration: time.Second, Mix: DefaultMix()}
		if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "rps") {
			t.Errorf("rps %g: err %v, want an rps error", rps, err)
		}
	}
}

func TestMixValidate(t *testing.T) {
	good := DefaultMix()
	if err := good.Validate(); err != nil {
		t.Fatalf("default mix invalid: %v", err)
	}
	bad := []Mix{
		{},
		{ZipfS: 1.2, ZipfKeys: 4, Entries: []MixEntry{{Weight: 0, Endpoint: "run", Scenario: "s", Policy: "p", MeasureS: 1, DeltaBase: 1}}},
		{ZipfS: 1.2, ZipfKeys: 4, Entries: []MixEntry{{Weight: 1, Endpoint: "nope", Scenario: "s", MeasureS: 1, DeltaBase: 1}}},
		{ZipfS: 1.2, ZipfKeys: 4, Entries: []MixEntry{{Weight: 1, Endpoint: "run", Scenario: "s", Policy: "p", MeasureS: 0, DeltaBase: 1}}},
		{ZipfS: 0.5, ZipfKeys: 4, Entries: []MixEntry{{Weight: 1, Endpoint: "run", Scenario: "s", Policy: "p", MeasureS: 1, DeltaBase: 1}}},
		{ZipfS: 1.2, ZipfKeys: 0, Entries: []MixEntry{{Weight: 1, Endpoint: "run", Scenario: "s", Policy: "p", MeasureS: 1, DeltaBase: 1}}},
		{ZipfS: 1.2, ZipfKeys: 4, Entries: []MixEntry{{Weight: 1, Endpoint: "matrix", Scenario: "s", MeasureS: 1, DeltaBase: 1}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad mix %d accepted", i)
		}
	}
}

func TestQuantileExact(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	q := quantilesOf(ds)
	if q.Count != 100 || q.P50Ms != 50 || q.P95Ms != 95 || q.P99Ms != 99 {
		t.Errorf("quantiles = %+v, want 50/95/99 over 1..100ms", q)
	}
	one := quantilesOf([]time.Duration{7 * time.Millisecond})
	if one.P50Ms != 7 || one.P99Ms != 7 {
		t.Errorf("single-sample quantiles = %+v", one)
	}
	if quantilesOf(nil).Count != 0 {
		t.Error("empty quantiles nonzero")
	}
}
