package main

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"thermbal/internal/service"
)

// TestRun drives the client against an in-process server: the repeat
// run is a byte-identical cache hit, and the counters it reads from
// /metrics show one execution per distinct request and one cache
// lookup per request.
func TestRun(t *testing.T) {
	s := service.New(service.Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out strings.Builder
	if err := run(ts.URL, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "cache: miss then hit, byte-identical=true") {
		t.Errorf("repeat run not a byte-identical hit:\n%s", text)
	}
	_, line, ok := strings.Cut(text, "metrics: ")
	if !ok {
		t.Fatalf("no metrics line:\n%s", text)
	}
	var execs, coalesced, hits, misses float64
	if _, err := fmt.Sscanf(line, "%g executions, %g coalesced, %g hits / %g misses",
		&execs, &coalesced, &hits, &misses); err != nil {
		t.Fatalf("metrics line %q: %v", line, err)
	}
	// Two distinct requests, ten lookups: the cold and repeat run, then
	// eight concurrent identical ones.
	if execs != 2 || hits+misses != 10 {
		t.Errorf("metrics: %g executions, %g hits + %g misses; want 2 and 10 lookups", execs, hits, misses)
	}
}
