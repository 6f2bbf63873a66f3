package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestGoldenVerdicts pins the exit status and stderr of the command's
// usage errors.
func TestGoldenVerdicts(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		exit   int
		stderr string // substring
	}{
		{"no-arguments", nil, 2, "usage: trajectory bench-json"},
		{"bad-flag", []string{"bench-json", "-no-such-flag"}, 2, `unexpected arguments ["bench-json" "-no-such-flag"]`},
		{"unknown-subcommand", []string{"benchdiff"}, 2, `unexpected arguments ["benchdiff"]`},
		{"removed-gate", []string{"bench", "-base", "BENCH.json"}, 2, "usage: trajectory bench-json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			exit := run(c.args, strings.NewReader(""), &stdout, &stderr)
			if exit != c.exit {
				t.Errorf("exit status %d, want %d (stderr: %s)", exit, c.exit, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout %q, want empty", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), c.stderr)
			}
		})
	}
}

// toolchainFields are the bench-json fields that depend on when and
// with which toolchain the document was written.
var toolchainFields = regexp.MustCompile(`"(date|go_version|goos|goarch)": "[^"]*"`)

// TestBenchJSONMatchesRecordedDocument: bench-json turns a fixed `go
// test -bench` transcript into the bytes of testdata/bench.json, apart
// from the date and toolchain stamps.
func TestBenchJSONMatchesRecordedDocument(t *testing.T) {
	transcript, err := os.ReadFile(filepath.Join("testdata", "bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if exit := run([]string{"bench-json"}, bytes.NewReader(transcript), &stdout, &stderr); exit != 0 {
		t.Fatalf("bench-json exit %d: %s", exit, stderr.String())
	}
	if !strings.Contains(stdout.String(), `"go_version": "`+runtime.Version()+`"`) {
		t.Errorf("document not stamped with the running toolchain %s", runtime.Version())
	}
	got := toolchainFields.ReplaceAll(stdout.Bytes(), []byte(`"$1": "-"`))
	want = toolchainFields.ReplaceAll(want, []byte(`"$1": "-"`))
	if !bytes.Equal(got, want) {
		t.Errorf("bench-json document differs from the recorded one:\n%s\nwant:\n%s", got, want)
	}
}

func TestBenchJSONRejectsEmptyTranscript(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if exit := run([]string{"bench-json"}, strings.NewReader("PASS\n"), &stdout, &stderr); exit != 1 {
		t.Errorf("empty transcript: exit %d, want 1", exit)
	}
}

// TestBenchJSONMedians: the lines of a `go test -count N` transcript
// fold into one record per benchmark, in first-line order, holding the
// median of every number and the line count.
func TestBenchJSONMedians(t *testing.T) {
	const transcript = `BenchmarkOdd-2    	1	 300 ns/op	 10 B/op	 1 allocs/op
BenchmarkEven-2   	2	 100 ns/op	 4.0 substeps
BenchmarkOdd-2    	1	 100 ns/op	 30 B/op	 3 allocs/op
BenchmarkEven-2   	4	 400 ns/op	 1.0 substeps
BenchmarkOdd-2    	1	 200 ns/op	 20 B/op	 9 allocs/op
BenchmarkEven-2   	6	 200 ns/op	 2.0 substeps
BenchmarkEven-2   	8	 900 ns/op	 3.0 substeps
PASS
`
	var stdout, stderr bytes.Buffer
	if exit := run([]string{"bench-json"}, strings.NewReader(transcript), &stdout, &stderr); exit != 0 {
		t.Fatalf("bench-json exit %d: %s", exit, stderr.String())
	}
	var doc benchDoc
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	want := []benchResult{
		{Name: "BenchmarkOdd-2", Iterations: 1, NsPerOp: 200, Samples: 3,
			Extra: map[string]float64{"B/op": 20, "allocs/op": 3}},
		{Name: "BenchmarkEven-2", Iterations: 5, NsPerOp: 300, Samples: 4,
			Extra: map[string]float64{"substeps": 2.5}},
	}
	if len(doc.Benchmarks) != len(want) {
		t.Fatalf("recorded %d benchmarks, want %d: %+v", len(doc.Benchmarks), len(want), doc.Benchmarks)
	}
	for i, w := range want {
		g := doc.Benchmarks[i]
		if g.Name != w.Name || g.Iterations != w.Iterations || g.NsPerOp != w.NsPerOp || g.Samples != w.Samples {
			t.Errorf("benchmark %d = %+v, want %+v", i, g, w)
		}
		if len(g.Extra) != len(w.Extra) {
			t.Errorf("%s extra units %v, want %v", w.Name, g.Extra, w.Extra)
		}
		for unit, v := range w.Extra {
			if g.Extra[unit] != v {
				t.Errorf("%s %s = %g, want %g", w.Name, unit, g.Extra[unit], v)
			}
		}
	}
}

const sample = `goos: linux
goarch: amd64
pkg: thermbal
cpu: AMD EPYC
BenchmarkSweepSerial-8   	       3	 312456789 ns/op
BenchmarkSweepParallel-8 	       3	  98765432 ns/op	     128 B/op	       2 allocs/op
BenchmarkStep/euler-8    	     100	     11222 ns/op	     3.5 substeps
PASS
ok  	thermbal	1.234s
`

func TestParse(t *testing.T) {
	got, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(got), got)
	}
	if got[0].Name != "BenchmarkSweepSerial-8" || got[0].Iterations != 3 || got[0].NsPerOp != 312456789 {
		t.Errorf("first result wrong: %+v", got[0])
	}
	if got[1].Extra["B/op"] != 128 || got[1].Extra["allocs/op"] != 2 {
		t.Errorf("extra units not parsed: %+v", got[1])
	}
	if got[2].Name != "BenchmarkStep/euler-8" || got[2].Extra["substeps"] != 3.5 {
		t.Errorf("sub-benchmark wrong: %+v", got[2])
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	got, err := parseBench(strings.NewReader("BenchmarkFoo has no numbers\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("noise parsed as results: %+v", got)
	}
}

func TestParseBadValue(t *testing.T) {
	if _, err := parseBench(strings.NewReader("BenchmarkX-8 10 abc ns/op\n")); err == nil {
		t.Fatal("bad value accepted")
	}
}
