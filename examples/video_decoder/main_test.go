package main

import (
	"os"
	"strings"
	"testing"
)

// TestRunGolden pins the example's whole output: the three policies'
// table. Regenerate with
//
//	go run ./examples/video_decoder > examples/video_decoder/testdata/stdout.golden
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
