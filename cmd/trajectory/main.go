// Command trajectory writes the committed performance record — the
// host-stamped BENCH_<date>.json points. Its entry point is
// `make bench-json`. The points are a record, not a baseline: a
// performance change is judged by `make bench-ab`, which runs the
// parent and the change alternately on one host.
//
// Usage:
//
//	go test -bench . -count 5 -run '^$' . | trajectory bench-json > BENCH.json
//
// A benchmark that appears on several lines (go test -count N) is
// recorded once, with the median of each number over its lines and
// the number of lines as samples. Exit status 1 is unusable input, 2 a
// usage error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

const usage = "usage: trajectory bench-json < go-test-bench.txt > BENCH.json\n"

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run executes the command and returns the process exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) != 1 || args[0] != "bench-json" {
		fmt.Fprintf(stderr, "trajectory: unexpected arguments %q\n%s", args, usage)
		return 2
	}
	if err := benchJSON(stdin, stdout); err != nil {
		fmt.Fprintf(stderr, "trajectory bench-json: %v\n", err)
		return 1
	}
	return 0
}

// benchResult is one benchmark's record.
type benchResult struct {
	// Name includes the -cpu suffix ("BenchmarkStep/euler-8").
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Extra holds any further unit pairs (B/op, allocs/op, custom
	// b.ReportMetric units), keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Samples is the number of lines the numbers are medians of.
	Samples int `json:"samples"`
}

// benchDoc is a BENCH_<date>.json document.
type benchDoc struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// parseBench reads `go test -bench` output and returns one result per
// benchmark, in the order of its first line, holding the median of
// each number over the benchmark's lines that carry it (the mean of
// the middle two for an even count). Package headers, PASS/ok lines
// and prose starting with "Benchmark" are skipped. A result line has
// the shape:
//
//	BenchmarkName-8   	     100	  11222333 ns/op	  456 B/op	 7 allocs/op
func parseBench(r io.Reader) ([]benchResult, error) {
	var names []string
	// Values by benchmark name, then unit; iterations are unit "".
	values := map[string]map[string][]float64{}
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
		byUnit := values[fields[0]]
		if byUnit == nil {
			byUnit = map[string][]float64{}
			values[fields[0]] = byUnit
			names = append(names, fields[0])
		}
		byUnit[""] = append(byUnit[""], float64(iters))
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			byUnit[fields[i+1]] = append(byUnit[fields[i+1]], v)
		}
	}
	out := make([]benchResult, 0, len(names))
	for _, name := range names {
		res := benchResult{Name: name, Samples: len(values[name][""])}
		for unit, vs := range values[name] {
			switch m := median(vs); unit {
			case "":
				res.Iterations = int64(m)
			case "ns/op":
				res.NsPerOp = m
			default:
				if res.Extra == nil {
					res.Extra = map[string]float64{}
				}
				res.Extra[unit] = m
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
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
