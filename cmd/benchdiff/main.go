// Command benchdiff compares two bench2json documents and fails when
// any benchmark matching a name filter regressed beyond a threshold —
// in ns/op, or in allocs/op when both documents were recorded with
// -benchmem (a zero-alloc baseline is a hard floor: one new
// allocation per op fails the gate).
// `make bench-diff` uses it to compare a fresh run against the newest
// committed BENCH_<date>.json, so Sweep-benchmark regressions surface
// in CI instead of silently accumulating.
//
// Usage:
//
//	benchdiff -base BENCH_2026-07-29.json -new fresh.json \
//	          -match 'BenchmarkSweep' -max-regress 0.15
//	benchdiff -base "$(git ls-files 'BENCH_*.json' | paste -sd, -)" \
//	          -new fresh.json
//
// -base accepts one document or a comma/whitespace-separated list of
// candidates; the baseline is the candidate with the newest `date`
// field. Selecting by the recorded date rather than by filename means
// a same-day follow-up point (BENCH_2026-07-29_2.json) is never
// shadowed by its older sibling's lexically-equal date prefix.
//
// Exit status 1 means at least one matched benchmark regressed by more
// than the threshold; missing counterparts are reported but do not
// fail the comparison (benchmarks come and go across commits).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"strings"
	"time"

	"thermbal/internal/benchparse"
)

// document mirrors cmd/bench2json's output shape; only the fields the
// comparison needs are decoded.
type document struct {
	Date       string              `json:"date"`
	Benchmarks []benchparse.Result `json:"benchmarks"`
}

// procsSuffix is the "-<GOMAXPROCS>" tail `go test -bench` appends to
// benchmark names on multi-core machines. Baselines and fresh runs may
// come from machines with different core counts, so names are compared
// with the suffix stripped.
var procsSuffix = regexp.MustCompile(`-\d+$`)

func stripProcs(name string) string {
	return procsSuffix.ReplaceAllString(name, "")
}

func load(path string) (document, error) {
	var doc document
	f, err := os.Open(path)
	if err != nil {
		return doc, err
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return doc, fmt.Errorf("%s: no benchmarks", path)
	}
	return doc, nil
}

// docDate parses a document's recorded date. bench2json stamps
// RFC3339; a document without a parseable date sorts oldest so it can
// never shadow a properly stamped one.
func docDate(doc document) time.Time {
	t, err := time.Parse(time.RFC3339, doc.Date)
	if err != nil {
		return time.Time{}
	}
	return t
}

// pickBaseline loads every candidate path and returns the one whose
// `date` field is newest (ties keep the later-listed candidate, so a
// fully unstamped set still degrades to "last one named"). A candidate
// that fails to load is warned about and skipped — one legacy or
// malformed committed point must not break the gate while a good
// newest baseline exists; only an empty surviving set is an error.
func pickBaseline(paths []string) (document, string, error) {
	var (
		best     document
		bestPath string
		bestTime time.Time
		found    bool
		loadErrs []error
	)
	for _, path := range paths {
		doc, err := load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: skipping baseline candidate: %v\n", err)
			loadErrs = append(loadErrs, err)
			continue
		}
		when := docDate(doc)
		if !found || !when.Before(bestTime) {
			best, bestPath, bestTime, found = doc, path, when, true
		}
	}
	if !found {
		if len(loadErrs) > 0 {
			return document{}, "", fmt.Errorf("no loadable baseline candidate (first error: %w)", loadErrs[0])
		}
		return document{}, "", fmt.Errorf("no baseline candidates")
	}
	return best, bestPath, nil
}

// splitBases splits the -base flag value on commas and whitespace.
func splitBases(spec string) []string {
	return strings.FieldsFunc(spec, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\n'
	})
}

// gate compares one fresh benchmark against its baseline and returns
// the report lines plus the number of budget violations. ns/op uses
// the fractional budget. allocs/op (present when both documents were
// recorded with -benchmem) uses the same fractional budget, except
// that a zero-alloc baseline is a hard floor: any new allocation per
// op is a regression — the zero-alloc hot loops are a correctness
// property of the integrators, not a soft perf number. Documents
// recorded before -benchmem skip the allocation gate.
func gate(prev, b benchparse.Result, maxRegress float64) (lines []string, regressions int) {
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	var (
		baseSpec   = flag.String("base", "", "baseline bench2json document, or a comma/whitespace-separated candidate list (newest `date` wins)")
		newPath    = flag.String("new", "", "fresh bench2json document")
		match      = flag.String("match", ".", "regexp selecting benchmark names to gate on")
		maxRegress = flag.Float64("max-regress", 0.15, "maximum allowed ns/op increase as a fraction of the baseline")
	)
	flag.Parse()
	basePaths := splitBases(*baseSpec)
	if len(basePaths) == 0 || *newPath == "" {
		log.Fatal("both -base and -new are required")
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		log.Fatalf("bad -match: %v", err)
	}
	base, basePath, err := pickBaseline(basePaths)
	if err != nil {
		log.Fatal(err)
	}
	fresh, err := load(*newPath)
	if err != nil {
		log.Fatal(err)
	}

	baseline := make(map[string]benchparse.Result, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[stripProcs(b.Name)] = b
	}
	if len(basePaths) > 1 {
		fmt.Printf("baseline %s (%s), newest of %d candidates\n", basePath, base.Date, len(basePaths))
	} else {
		fmt.Printf("baseline %s (%s)\n", basePath, base.Date)
	}
	regressed := 0
	compared := 0
	for _, b := range fresh.Benchmarks {
		if !re.MatchString(b.Name) {
			continue
		}
		prev, ok := baseline[stripProcs(b.Name)]
		if !ok {
			fmt.Printf("  %-34s %12.0f ns/op  (new benchmark, no baseline)\n", b.Name, b.NsPerOp)
			continue
		}
		delete(baseline, stripProcs(b.Name))
		compared++
		lines, bad := gate(prev, b, *maxRegress)
		regressed += bad
		for _, l := range lines {
			fmt.Println(l)
		}
	}
	for _, b := range base.Benchmarks {
		if _, unmatched := baseline[stripProcs(b.Name)]; unmatched && re.MatchString(b.Name) {
			fmt.Printf("  %-34s %12.0f ns/op  (dropped, no fresh counterpart)\n", b.Name, b.NsPerOp)
		}
	}
	if compared == 0 {
		log.Fatalf("no benchmarks matched %q in both documents", *match)
	}
	if regressed > 0 {
		log.Fatalf("%d regressions across %d matched benchmarks (budget %.0f%%)", regressed, compared, 100**maxRegress)
	}
	fmt.Printf("%d matched benchmarks within the %.0f%% budget\n", compared, 100**maxRegress)
}
