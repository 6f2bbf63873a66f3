// Command trajectory records and gates the performance trajectory —
// the committed BENCH_<date>.json and LOAD_<date>.json points. Its
// entry points are `make bench-json`, `make bench-diff` and
// `make load-diff`.
//
// Usage:
//
//	go test -bench . -run '^$' . | trajectory bench-json > BENCH.json
//	trajectory bench -base "$(git ls-files 'BENCH_*.json' | paste -sd, -)" \
//	                 -new fresh.json -match 'BenchmarkSweep' -max-regress 0.15
//	trajectory load -base "$(git ls-files 'LOAD_*.json' | paste -sd, -)" \
//	                -new fresh.json -max-regress 0.5 -min-ms 2
//
// -base takes one document or a comma/whitespace-separated candidate
// list; the baseline is the loadable candidate with the newest `date`
// field, so a same-day BENCH_2026-07-29_2.json is never shadowed by
// its sibling's filename. bench gates ns/op, and allocs/op when both
// documents carry it, under -max-regress; a zero-alloc baseline is a
// hard floor. load gates p95/p99 per endpoint under -max-regress
// (pairs both below -min-ms are noise), and errors on a clean
// baseline; refusals are reported, never gated. Benchmarks and
// endpoints missing on one side are reported, not gated. Exit status
// 1 is a failed gate or unusable input, 2 a usage error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"thermbal/internal/loadgen"
)

const usage = `usage:
  trajectory bench-json < go-test-bench.txt > BENCH.json
  trajectory bench -base LIST -new FILE [-match RE] [-max-regress F]
  trajectory load  -base LIST -new FILE [-max-regress F] [-min-ms MS]
`

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// errUsage is a flag error the flag set has already printed.
var errUsage = errors.New("usage")

// run executes one subcommand and returns the process exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	var err error
	switch args[0] {
	case "bench-json":
		err = benchJSON(stdin, stdout)
	case "bench":
		err = benchDiff(args[1:], stdout, stderr)
	case "load":
		err = loadDiff(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "trajectory: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintf(stderr, "trajectory %s: %v\n", args[0], err)
	return 1
}

// splitList splits a -base value on commas and whitespace.
func splitList(spec string) []string {
	return strings.FieldsFunc(spec, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\n'
	})
}

// loader reads one trajectory document and its recorded date.
type loader[D any] func(path string) (D, string, error)

// newest loads every candidate and returns the one whose date (parsed
// with layout) is newest; ties keep the later-listed candidate, and an
// unparseable date sorts oldest so it never shadows a stamped one. A
// candidate that fails to load is warned about and skipped — one
// malformed committed point must not break the gate while a good
// baseline exists; only an empty surviving set is an error.
func newest[D any](paths []string, layout string, load loader[D], warn io.Writer) (doc D, path, date string, err error) {
	var (
		bestTime time.Time
		found    bool
		firstErr error
	)
	for _, p := range paths {
		d, ds, err := load(p)
		if err != nil {
			fmt.Fprintf(warn, "trajectory: skipping baseline candidate: %v\n", err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		when, perr := time.Parse(layout, ds)
		if perr != nil {
			when = time.Time{}
		}
		if !found || !when.Before(bestTime) {
			doc, path, date, bestTime, found = d, p, ds, when, true
		}
	}
	switch {
	case found:
		return doc, path, date, nil
	case firstErr != nil:
		return doc, "", "", fmt.Errorf("no loadable baseline candidate (first error: %w)", firstErr)
	}
	return doc, "", "", errors.New("no baseline candidates")
}

// baselineAndFresh resolves the -base candidates and the -new document
// and prints the baseline header line.
func baselineAndFresh[D any](baseSpec, newPath, layout string, load loader[D], stdout, stderr io.Writer) (base, fresh D, err error) {
	paths := splitList(baseSpec)
	if len(paths) == 0 || newPath == "" {
		return base, fresh, errors.New("both -base and -new are required")
	}
	base, basePath, baseDate, err := newest(paths, layout, load, stderr)
	if err != nil {
		return base, fresh, err
	}
	if fresh, _, err = load(newPath); err != nil {
		return base, fresh, err
	}
	if len(paths) > 1 {
		fmt.Fprintf(stdout, "baseline %s (%s), newest of %d candidates\n", basePath, baseDate, len(paths))
	} else {
		fmt.Fprintf(stdout, "baseline %s (%s)\n", basePath, baseDate)
	}
	return base, fresh, nil
}

// parseFlags parses a subcommand's flags.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if fs.Parse(args) != nil {
		return errUsage
	}
	return nil
}

// benchResult is one parsed `go test -bench` line.
type benchResult struct {
	// Name includes the -cpu suffix ("BenchmarkStep/euler-8").
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Extra holds any further unit pairs (B/op, allocs/op, custom
	// b.ReportMetric units), keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// benchDoc is a BENCH_<date>.json document.
type benchDoc struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// parseBench reads `go test -bench` output and returns the benchmark
// lines in order; package headers, PASS/ok lines and prose starting
// with "Benchmark" are skipped. A result line has the shape:
//
//	BenchmarkName-8   	     100	  11222333 ns/op	  456 B/op	 7 allocs/op
func parseBench(r io.Reader) ([]benchResult, error) {
	var out []benchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		// Name, iterations, then (value, unit) pairs.
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := benchResult{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			if unit := fields[i+1]; unit == "ns/op" {
				res.NsPerOp = v
			} else {
				if res.Extra == nil {
					res.Extra = map[string]float64{}
				}
				res.Extra[unit] = v
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

func benchJSON(stdin io.Reader, stdout io.Writer) error {
	results, err := parseBench(stdin)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return errors.New("no benchmark lines on stdin")
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(benchDoc{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: results,
	})
}

func loadBench(path string) (benchDoc, string, error) {
	var doc benchDoc
	f, err := os.Open(path)
	if err != nil {
		return doc, "", err
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return doc, "", fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return doc, "", fmt.Errorf("%s: no benchmarks", path)
	}
	return doc, doc.Date, nil
}

// procsSuffix is the "-<GOMAXPROCS>" tail `go test -bench` appends on
// multi-core machines; names are compared without it, since baselines
// and fresh runs may come from machines with different core counts.
var procsSuffix = regexp.MustCompile(`-\d+$`)

func stripProcs(name string) string { return procsSuffix.ReplaceAllString(name, "") }

// gateBench compares one fresh benchmark against its baseline and
// returns the report lines plus the number of budget violations: ns/op
// under the fractional budget, and allocs/op (when both sides carry
// it) under the same budget, except that a zero-alloc baseline is a
// hard floor — the zero-alloc hot loops are a correctness property of
// the integrators, not a soft perf number.
func gateBench(prev, b benchResult, maxRegress float64) (lines []string, regressions int) {
	was := prev.NsPerOp
	delta := (b.NsPerOp - was) / was
	verdict := "ok"
	if delta > maxRegress {
		verdict = "REGRESSED"
		regressions++
	}
	lines = append(lines, fmt.Sprintf("  %-34s %12.0f -> %12.0f ns/op  %+6.1f%%  %s",
		b.Name, was, b.NsPerOp, 100*delta, verdict))

	wasAllocs, baseHas := prev.Extra["allocs/op"]
	nowAllocs, freshHas := b.Extra["allocs/op"]
	if !baseHas || !freshHas {
		return lines, regressions
	}
	switch {
	case wasAllocs == 0 && nowAllocs > 0:
		regressions++
		lines = append(lines, fmt.Sprintf("  %-34s %12.0f -> %12.0f allocs/op  REGRESSED (was zero-alloc)",
			b.Name, wasAllocs, nowAllocs))
	case wasAllocs > 0 && (nowAllocs-wasAllocs)/wasAllocs > maxRegress:
		regressions++
		lines = append(lines, fmt.Sprintf("  %-34s %12.0f -> %12.0f allocs/op  %+6.1f%%  REGRESSED",
			b.Name, wasAllocs, nowAllocs, 100*(nowAllocs-wasAllocs)/wasAllocs))
	}
	return lines, regressions
}

func benchDiff(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	baseSpec := fs.String("base", "", "baseline BENCH json document, or a comma/whitespace-separated candidate list (newest `date` wins)")
	newPath := fs.String("new", "", "fresh BENCH json document")
	match := fs.String("match", ".", "regexp selecting benchmark names to gate on")
	maxRegress := fs.Float64("max-regress", 0.15, "maximum allowed ns/op and allocs/op increase as a fraction of the baseline")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		return fmt.Errorf("bad -match: %w", err)
	}
	base, fresh, err := baselineAndFresh(*baseSpec, *newPath, time.RFC3339, loadBench, stdout, stderr)
	if err != nil {
		return err
	}
	baseline := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[stripProcs(b.Name)] = b
	}
	regressed, compared := 0, 0
	for _, b := range fresh.Benchmarks {
		if !re.MatchString(b.Name) {
			continue
		}
		prev, ok := baseline[stripProcs(b.Name)]
		if !ok {
			fmt.Fprintf(stdout, "  %-34s %12.0f ns/op  (new benchmark, no baseline)\n", b.Name, b.NsPerOp)
			continue
		}
		delete(baseline, stripProcs(b.Name))
		compared++
		lines, bad := gateBench(prev, b, *maxRegress)
		regressed += bad
		for _, l := range lines {
			fmt.Fprintln(stdout, l)
		}
	}
	for _, b := range base.Benchmarks {
		if _, unmatched := baseline[stripProcs(b.Name)]; unmatched && re.MatchString(b.Name) {
			fmt.Fprintf(stdout, "  %-34s %12.0f ns/op  (dropped, no fresh counterpart)\n", b.Name, b.NsPerOp)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no benchmarks matched %q in both documents", *match)
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressions across %d matched benchmarks (budget %.0f%%)", regressed, compared, 100**maxRegress)
	}
	fmt.Fprintf(stdout, "%d matched benchmarks within the %.0f%% budget\n", compared, 100**maxRegress)
	return nil
}

func loadLoad(path string) (*loadgen.Report, string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	rep, err := loadgen.DecodeReport(b)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return rep, rep.Date, nil
}

// gateQuantile compares one quantile pair under the fractional budget
// and the noise floor.
func gateQuantile(name, which string, base, fresh, maxRegress, minMs float64) (string, bool) {
	if base < minMs && fresh < minMs {
		return fmt.Sprintf("  %-10s %-4s %8.2f -> %8.2f ms  (below %.1f ms noise floor)", name, which, base, fresh, minMs), false
	}
	delta := 0.0
	if base > 0 {
		delta = (fresh - base) / base
	} else if fresh >= minMs {
		delta = maxRegress + 1 // zero baseline, material fresh latency
	}
	verdict := "ok"
	bad := delta > maxRegress
	if bad {
		verdict = "REGRESSED"
	}
	return fmt.Sprintf("  %-10s %-4s %8.2f -> %8.2f ms  %+6.1f%%  %s", name, which, base, fresh, 100*delta, verdict), bad
}

func loadDiff(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	baseSpec := fs.String("base", "", "baseline LOAD json document, or a comma/whitespace-separated candidate list (newest `date` wins)")
	newPath := fs.String("new", "", "fresh LOAD json document")
	maxRegress := fs.Float64("max-regress", 0.5, "maximum allowed p95/p99 increase as a fraction of the baseline")
	minMs := fs.Float64("min-ms", 2, "noise floor in ms: quantile pairs both below it are never gated")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	base, fresh, err := baselineAndFresh(*baseSpec, *newPath, time.DateOnly, loadLoad, stdout, stderr)
	if err != nil {
		return err
	}
	if base.TargetRPS != fresh.TargetRPS {
		fmt.Fprintf(stdout, "note: target rps differs (%g baseline vs %g fresh) — quantiles compared anyway\n",
			base.TargetRPS, fresh.TargetRPS)
	}
	names := make([]string, 0, len(fresh.Endpoints))
	for name := range fresh.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed, compared := 0, 0
	for _, name := range names {
		freshEp := fresh.Endpoints[name]
		baseEp, ok := base.Endpoints[name]
		if !ok {
			fmt.Fprintf(stdout, "  %-10s (new endpoint, no baseline)\n", name)
			continue
		}
		compared++
		for _, q := range []struct {
			which       string
			base, fresh float64
		}{
			{"p95", baseEp.Latency.P95Ms, freshEp.Latency.P95Ms},
			{"p99", baseEp.Latency.P99Ms, freshEp.Latency.P99Ms},
		} {
			line, bad := gateQuantile(name, q.which, q.base, q.fresh, *maxRegress, *minMs)
			fmt.Fprintln(stdout, line)
			if bad {
				regressed++
			}
		}
		if baseEp.Errors == 0 && freshEp.Errors > 0 {
			fmt.Fprintf(stdout, "  %-10s errors  %d -> %d  REGRESSED (baseline was clean)\n", name, baseEp.Errors, freshEp.Errors)
			regressed++
		}
		if freshEp.Shed+freshEp.Quota > 0 {
			fmt.Fprintf(stdout, "  %-10s refusals: %d shed, %d quota (policy outcome, not gated)\n", name, freshEp.Shed, freshEp.Quota)
		}
	}
	if compared == 0 {
		return errors.New("no endpoint present in both documents")
	}
	if regressed > 0 {
		return fmt.Errorf("%d gate failures across %d endpoints (budget %.0f%%, floor %.1f ms)", regressed, compared, 100**maxRegress, *minMs)
	}
	fmt.Fprintf(stdout, "%d endpoints within the %.0f%% budget\n", compared, 100**maxRegress)
	return nil
}
