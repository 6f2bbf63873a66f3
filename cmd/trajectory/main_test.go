package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// committedBench is the BENCH_*.json candidate list the bench gate is
// run with below, in `git ls-files` order.
var committedBench = strings.Join([]string{
	"../../BENCH_2026-07-29.json",
	"../../BENCH_2026-07-29_2.json",
	"../../BENCH_2026-08-07.json",
	"../../BENCH_2026-08-08.json",
	"../../BENCH_2026-10-16.json",
	"../../BENCH_2026-10-17.json",
	"../../BENCH_2026-10-17_2.json",
}, ",")

const sweepAndBuild = "BenchmarkSweep|BenchmarkExpmBuild"

// TestGoldenVerdicts pins the gates' stdout and exit status on the
// committed trajectory points and on regressed copies of them under
// testdata/. The expected lines are what the earlier single-purpose
// tools (benchdiff, loaddiff) printed on the same inputs; per-endpoint
// load blocks are listed in endpoint-name order.
func TestGoldenVerdicts(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stdout []string
		exit   int
		stderr string // substring, when non-empty
	}{
		{"bench-self", []string{"bench", "-base", committedBench, "-new", "../../BENCH_2026-10-17_2.json", "-match", sweepAndBuild, "-max-regress", "0.15"}, []string{
			"baseline ../../BENCH_2026-10-17_2.json (2026-10-17T03:18:14Z), newest of 7 candidates",
			"  BenchmarkSweepSerial-2                 19186440 ->     19186440 ns/op    +0.0%  ok",
			"  BenchmarkSweepSerialExpm-2             11580470 ->     11580470 ns/op    +0.0%  ok",
			"  BenchmarkSweepParallel-2               10456971 ->     10456971 ns/op    +0.0%  ok",
			"  BenchmarkExpmBuildManycore64-2        190463026 ->    190463026 ns/op    +0.0%  ok",
			"  BenchmarkExpmBuildSDR-2                  112075 ->       112075 ns/op    +0.0%  ok",
			"5 matched benchmarks within the 15% budget",
		}, 0, ""},
		{"bench-ns-regressed", []string{"bench", "-base", committedBench, "-new", "testdata/bench_ns_regressed.json", "-match", sweepAndBuild, "-max-regress", "0.15"}, []string{
			"baseline ../../BENCH_2026-10-17_2.json (2026-10-17T03:18:14Z), newest of 7 candidates",
			"  BenchmarkSweepSerial-2                 19186440 ->     28779660 ns/op   +50.0%  REGRESSED",
			"  BenchmarkSweepSerialExpm-2             11580470 ->     11580470 ns/op    +0.0%  ok",
			"  BenchmarkSweepParallel-2               10456971 ->     10456971 ns/op    +0.0%  ok",
			"  BenchmarkExpmBuildManycore64-2        190463026 ->    190463026 ns/op    +0.0%  ok",
			"  BenchmarkExpmBuildSDR-2                  112075 ->       123283 ns/op   +10.0%  ok",
		}, 1, "1 regressions across 5 matched benchmarks (budget 15%)"},
		{"bench-allocs-regressed", []string{"bench", "-base", committedBench, "-new", "testdata/bench_allocs_regressed.json", "-match", "."}, []string{
			"baseline ../../BENCH_2026-10-17_2.json (2026-10-17T03:18:14Z), newest of 7 candidates",
			"  BenchmarkSweepSerial-2                 19186440 ->     19186440 ns/op    +0.0%  ok",
			"  BenchmarkSweepSerialExpm-2             11580470 ->     11580470 ns/op    +0.0%  ok",
			"  BenchmarkSweepParallel-2               10456971 ->     10456971 ns/op    +0.0%  ok",
			"  BenchmarkSweepParallel-2                   6474 ->         9000 allocs/op   +39.0%  REGRESSED",
			"  BenchmarkStepEulerHighPerf-2             326082 ->       326082 ns/op    +0.0%  ok",
			"  BenchmarkStepExpmHighPerf-2               35011 ->        35011 ns/op    +0.0%  ok",
			"  BenchmarkStepExpmHighPerf-2                   0 ->            2 allocs/op  REGRESSED (was zero-alloc)",
			"  BenchmarkExpmBuildManycore64-2        190463026 ->    190463026 ns/op    +0.0%  ok",
			"  BenchmarkExpmBuildManycore256-2      2400000000 ns/op  (new benchmark, no baseline)",
			"  BenchmarkExpmBuildSDR-2                  112075 ns/op  (dropped, no fresh counterpart)",
		}, 1, "2 regressions across 6 matched benchmarks"},
		{"bench-procs-suffix", []string{"bench", "-base", "../../BENCH_2026-08-08.json", "-new", "../../BENCH_2026-10-17_2.json", "-match", sweepAndBuild, "-max-regress", "0.15"}, []string{
			"baseline ../../BENCH_2026-08-08.json (2026-08-08T01:03:40Z)",
			"  BenchmarkSweepSerial-2                 18443327 ->     19186440 ns/op    +4.0%  ok",
			"  BenchmarkSweepSerialExpm-2             11612643 ->     11580470 ns/op    -0.3%  ok",
			"  BenchmarkSweepParallel-2               19074869 ->     10456971 ns/op   -45.2%  ok",
			"  BenchmarkExpmBuildManycore64-2        190463026 ns/op  (new benchmark, no baseline)",
			"  BenchmarkExpmBuildSDR-2                  112075 ns/op  (new benchmark, no baseline)",
			"3 matched benchmarks within the 15% budget",
		}, 0, ""},
		{"bench-nothing-matched", []string{"bench", "-base", "../../BENCH_2026-07-29.json", "-new", "testdata/bench_ns_regressed.json", "-match", "NoSuch"}, []string{
			"baseline ../../BENCH_2026-07-29.json (2026-07-29T17:37:39Z)",
		}, 1, `no benchmarks matched "NoSuch" in both documents`},
		{"load-self", []string{"load", "-base", "../../LOAD_2026-08-08.json", "-new", "../../LOAD_2026-08-08.json"}, []string{
			"baseline ../../LOAD_2026-08-08.json (2026-08-08)",
			"  matrix     p95      1.68 ->     1.68 ms  (below 2.0 ms noise floor)",
			"  matrix     p99      1.68 ->     1.68 ms  (below 2.0 ms noise floor)",
			"  run        p95      0.63 ->     0.63 ms  (below 2.0 ms noise floor)",
			"  run        p99      1.02 ->     1.02 ms  (below 2.0 ms noise floor)",
			"2 endpoints within the 50% budget",
		}, 0, ""},
		{"load-p99-regressed", []string{"load", "-base", "../../LOAD_2026-08-08.json", "-new", "testdata/load_p99_regressed.json"}, []string{
			"baseline ../../LOAD_2026-08-08.json (2026-08-08)",
			"  jobs       (new endpoint, no baseline)",
			"  matrix     p95      1.68 ->     2.50 ms   +49.2%  ok",
			"  matrix     p99      1.68 ->     2.50 ms   +49.2%  ok",
			"  run        p95      0.63 ->     0.63 ms  (below 2.0 ms noise floor)",
			"  run        p99      1.02 ->     5.00 ms  +391.2%  REGRESSED",
			"  run        refusals: 3 shed, 0 quota (policy outcome, not gated)",
		}, 1, "1 gate failures across 2 endpoints (budget 50%, floor 2.0 ms)"},
		{"load-errors", []string{"load", "-base", "../../LOAD_2026-08-08.json", "-new", "testdata/load_errors.json"}, []string{
			"baseline ../../LOAD_2026-08-08.json (2026-08-08)",
			"  matrix     p95      1.68 ->     1.68 ms  (below 2.0 ms noise floor)",
			"  matrix     p99      1.68 ->     1.68 ms  (below 2.0 ms noise floor)",
			"  matrix     errors  0 -> 2  REGRESSED (baseline was clean)",
			"  run        p95      0.63 ->     0.63 ms  (below 2.0 ms noise floor)",
			"  run        p99      1.02 ->     1.02 ms  (below 2.0 ms noise floor)",
		}, 1, "1 gate failures"},
		{"load-unknown-schema", []string{"load", "-base", "../../LOAD_2026-08-08.json", "-new", "testdata/load_schema2.json"},
			nil, 1, "load_schema_version 2"},
		{"load-noise-floor", []string{"load", "-base", "testdata/load_schema2.json,../../LOAD_2026-08-08.json", "-new", "testdata/load_p99_regressed.json", "-min-ms", "6"}, []string{
			"baseline ../../LOAD_2026-08-08.json (2026-08-08), newest of 2 candidates",
			"  jobs       (new endpoint, no baseline)",
			"  matrix     p95      1.68 ->     2.50 ms  (below 6.0 ms noise floor)",
			"  matrix     p99      1.68 ->     2.50 ms  (below 6.0 ms noise floor)",
			"  run        p95      0.63 ->     0.63 ms  (below 6.0 ms noise floor)",
			"  run        p99      1.02 ->     5.00 ms  (below 6.0 ms noise floor)",
			"  run        refusals: 3 shed, 0 quota (policy outcome, not gated)",
			"2 endpoints within the 50% budget",
		}, 0, "skipping baseline candidate"},
		{"load-improved", []string{"load", "-base", "testdata/load_p99_regressed.json", "-new", "../../LOAD_2026-08-08.json", "-max-regress", "0.1"}, []string{
			"baseline testdata/load_p99_regressed.json (2026-10-18)",
			"  matrix     p95      2.50 ->     1.68 ms   -33.0%  ok",
			"  matrix     p99      2.50 ->     1.68 ms   -33.0%  ok",
			"  run        p95      0.63 ->     0.63 ms  (below 2.0 ms noise floor)",
			"  run        p99      5.00 ->     1.02 ms   -79.6%  ok",
			"2 endpoints within the 10% budget",
		}, 0, ""},
		{"missing-new", []string{"load", "-base", "../../LOAD_2026-08-08.json"}, nil, 1, "both -base and -new are required"},
		{"bad-flag", []string{"bench", "-no-such-flag"}, nil, 2, "flag provided but not defined"},
		{"unknown-subcommand", []string{"benchdiff"}, nil, 2, `unknown subcommand "benchdiff"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			exit := run(c.args, strings.NewReader(""), &stdout, &stderr)
			if exit != c.exit {
				t.Errorf("exit status %d, want %d (stderr: %s)", exit, c.exit, stderr.String())
			}
			want := ""
			if len(c.stdout) > 0 {
				want = strings.Join(c.stdout, "\n") + "\n"
			}
			if got := stdout.String(); got != want {
				t.Errorf("stdout:\n%s\nwant:\n%s", got, want)
			}
			if c.stderr != "" && !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), c.stderr)
			}
		})
	}
}

// toolchainFields are the bench-json fields that depend on when and
// with which toolchain the document was written.
var toolchainFields = regexp.MustCompile(`"(date|go_version|goos|goarch)": "[^"]*"`)

// TestBenchJSONMatchesRecordedDocument: bench-json turns a fixed `go
// test -bench` transcript into the same bytes the earlier bench2json
// tool wrote for it (testdata/bench.json), apart from the date and
// toolchain stamps.
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

func TestSplitBases(t *testing.T) {
	got := splitList("a.json,b.json c.json\nd.json,")
	want := []string{"a.json", "b.json", "c.json", "d.json"}
	if len(got) != len(want) {
		t.Fatalf("splitList = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("splitList[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeBench(t *testing.T, dir, name, date string) string {
	return writeFile(t, dir, name, `{"date":"`+date+`","benchmarks":[{"name":"BenchmarkSweepSerial","iterations":1,"ns_per_op":100}]}`)
}

func pickBench(paths []string) (string, error) {
	_, path, _, err := newest(paths, time.RFC3339, loadBench, &bytes.Buffer{})
	return path, err
}

func pickLoad(paths []string) (string, error) {
	_, path, _, err := newest(paths, time.DateOnly, loadLoad, &bytes.Buffer{})
	return path, err
}

// TestPickBaselineNewestByDate is the regression test for same-day
// trajectory points: BENCH_2026-07-29_2.json carries a later recorded
// date than BENCH_2026-07-29.json and must win regardless of the
// order the candidates are listed in.
func TestPickBaselineNewestByDate(t *testing.T) {
	dir := t.TempDir()
	older := writeBench(t, dir, "BENCH_2026-07-29.json", "2026-07-29T17:37:39Z")
	newer := writeBench(t, dir, "BENCH_2026-07-29_2.json", "2026-07-29T18:45:14Z")
	for _, paths := range [][]string{{older, newer}, {newer, older}} {
		got, err := pickBench(paths)
		if err != nil {
			t.Fatal(err)
		}
		if got != newer {
			t.Errorf("newest(%v) chose %s, want %s", paths, got, newer)
		}
	}
}

func TestPickBaselineUnstampedSortsOldest(t *testing.T) {
	dir := t.TempDir()
	stamped := writeBench(t, dir, "stamped.json", "2026-07-29T00:00:00Z")
	unstamped := writeBench(t, dir, "unstamped.json", "not-a-date")
	got, err := pickBench([]string{unstamped, stamped})
	if err != nil {
		t.Fatal(err)
	}
	if got != stamped {
		t.Errorf("unstamped candidate shadowed the stamped one (%s)", got)
	}
	// An all-unstamped set still resolves (last named wins).
	got, err = pickBench([]string{unstamped})
	if err != nil || got != unstamped {
		t.Errorf("single unstamped candidate: %s, %v", got, err)
	}
}

func TestPickBaselineSkipsUnloadableCandidates(t *testing.T) {
	dir := t.TempDir()
	good := writeBench(t, dir, "good.json", "2026-07-29T00:00:00Z")
	bad := writeFile(t, dir, "bad.json", "{not json")
	got, err := pickBench([]string{bad, good})
	if err != nil || got != good {
		t.Errorf("one bad candidate broke selection: %s, %v", got, err)
	}
	if _, err := pickBench([]string{bad}); err == nil {
		t.Error("all-unloadable candidate set must error")
	}
}

func writeLoad(t *testing.T, dir, name, date string) string {
	return writeFile(t, dir, name, `{
  "load_schema_version": 1,
  "date": "`+date+`",
  "target_rps": 50,
  "endpoints": {
    "run": {"count": 100, "errors": 0, "latency": {"count": 100, "p50_ms": 1, "p95_ms": 10, "p99_ms": 20}}
  }
}`)
}

// TestPickLoadBaselineNewestByDate: load points follow the same
// newest-recorded-date rule as bench points.
func TestPickLoadBaselineNewestByDate(t *testing.T) {
	dir := t.TempDir()
	older := writeLoad(t, dir, "LOAD_2026-08-01.json", "2026-08-01")
	newer := writeLoad(t, dir, "LOAD_2026-08-08.json", "2026-08-08")
	for _, paths := range [][]string{{older, newer}, {newer, older}} {
		got, err := pickLoad(paths)
		if err != nil {
			t.Fatal(err)
		}
		if got != newer {
			t.Errorf("newest(%v) chose %s, want %s", paths, got, newer)
		}
	}
}

func TestPickBaselineSkipsMalformed(t *testing.T) {
	dir := t.TempDir()
	bad := writeFile(t, dir, "bad.json", "{")
	good := writeLoad(t, dir, "good.json", "2026-08-08")
	got, err := pickLoad([]string{bad, good})
	if err != nil || got != good {
		t.Errorf("newest = %s, %v; want the loadable candidate", got, err)
	}
	if _, err := pickLoad([]string{bad}); err == nil {
		t.Error("all-malformed candidate set accepted")
	}
}

// TestGateAllocs covers the allocation budget: a zero-alloc baseline
// is a hard floor, non-zero baselines get the fractional budget, and
// documents without allocs/op skip the gate entirely.
func TestGateAllocs(t *testing.T) {
	res := func(ns float64, allocs float64, has bool) benchResult {
		r := benchResult{Name: "BenchmarkX", NsPerOp: ns}
		if has {
			r.Extra = map[string]float64{"allocs/op": allocs}
		}
		return r
	}
	cases := []struct {
		name        string
		prev, now   benchResult
		regressions int
	}{
		{"ns-ok-no-allocs", res(100, 0, false), res(100, 0, false), 0},
		{"ns-regressed", res(100, 0, false), res(200, 0, false), 1},
		{"zero-alloc-held", res(100, 0, true), res(100, 0, true), 0},
		{"zero-alloc-broken", res(100, 0, true), res(100, 1, true), 1},
		{"alloc-within-budget", res(100, 100, true), res(100, 110, true), 0},
		{"alloc-over-budget", res(100, 100, true), res(100, 200, true), 1},
		{"both-regressed", res(100, 0, true), res(200, 5, true), 2},
		{"baseline-missing-allocs", res(100, 0, false), res(100, 7, true), 0},
	}
	for _, c := range cases {
		if _, got := gateBench(c.prev, c.now, 0.15); got != c.regressions {
			t.Errorf("%s: gateBench() = %d regressions, want %d", c.name, got, c.regressions)
		}
	}
}

func TestGateQuantile(t *testing.T) {
	// Within budget.
	line, bad := gateQuantile("run", "p95", 10, 12, 0.5, 2)
	if bad {
		t.Errorf("20%% growth under a 50%% budget flagged: %s", line)
	}
	// Beyond budget.
	line, bad = gateQuantile("run", "p95", 10, 16, 0.5, 2)
	if !bad || !strings.Contains(line, "REGRESSED") {
		t.Errorf("60%% growth under a 50%% budget passed: %s", line)
	}
	// Both under the noise floor: never gated, whatever the ratio.
	_, bad = gateQuantile("run", "p99", 0.1, 1.9, 0.5, 2)
	if bad {
		t.Error("sub-floor jitter gated")
	}
	// Zero baseline with material fresh latency is a regression.
	_, bad = gateQuantile("run", "p99", 0, 50, 0.5, 2)
	if !bad {
		t.Error("zero-baseline jump to 50ms passed")
	}
}
