package main

import (
	"os"
	"strings"
	"testing"
)

// TestRunGolden pins the example's default report (±3 °C, no -csv):
// the window's metrics and the per-task, per-queue and per-migration
// breakdowns. Regenerate with
//
//	go run ./examples/sdr_radio > examples/sdr_radio/testdata/stdout.golden
func TestRunGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if out.String() != string(want) {
		t.Errorf("output differs from testdata/stdout.golden:\n%s", out.String())
	}
}
