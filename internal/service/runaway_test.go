package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// A thermal runaway is a documented refusal: 422 with a hint, never a
// 500 from encoding the NaN summary it used to produce, and never
// cached.
func TestRunawayIs422WithHint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const req = `{"scenario":"manycore-16","policy":"tb","package":"highperf","warmup_s":5,"measure_s":3}`
	for i := 0; i < 2; i++ {
		resp, body := do(t, http.MethodPost, ts.URL+"/run", req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("attempt %d: status %d, want 422: %s", i, resp.StatusCode, body)
		}
		var doc errorDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(doc.Error, "thermal runaway") || doc.Hint == "" {
			t.Errorf("attempt %d: error document %s lacks the runaway message or hint", i, body)
		}
	}
	if got := metric(t, s, "thermbal_executions_total"); got != 2 {
		t.Errorf("executions = %g, want 2 (a refusal must not be cached)", got)
	}
}
