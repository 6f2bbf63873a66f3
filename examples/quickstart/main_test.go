package main

import (
	"os"
	"strings"
	"testing"
)

// TestRunGolden pins the example's whole default output: the
// energy-balance and thermal-balance columns of the paper's headline
// experiment. Regenerate with
//
//	go run ./examples/quickstart > examples/quickstart/testdata/stdout.golden
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
