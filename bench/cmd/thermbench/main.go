// Command thermbench is thermbal's end-to-end benchmark. Run it from
// the repository root through bench/run.sh, which builds thermbench and
// thermservd from the checkout first:
//
//	bash bench/run.sh -seed 1                       # all four workloads, untraced
//	bash bench/run.sh -workload serve-hot -seed 3   # one workload
//	bash bench/run.sh -workload manycore -trace 1   # per-layer metrics and spans
//	bash bench/run.sh -compare DIR_A DIR_B          # bounds verdict per metric
//
// Each run prints its metrics with units, writes a results file under
// -out and prints, as its last line, one JSON object with the keys
// correct, attempted, failed and metrics. It exits 0 when every output
// was correct, 3 when a run completed with wrong outputs, 1 on error.
// -compare exits 1 when any metric is worse than its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"thermbal/bench"
)

func main() {
	var (
		workload   = flag.String("workload", "", "workload to run (default: all of "+fmt.Sprint(bench.Workloads)+")")
		seed       = flag.Int64("seed", 1, "input seed: run order, request keys, key draws")
		seconds    = flag.Float64("seconds", 20, "seconds each workload measures")
		trace      = flag.Int("trace", 0, "1: traced run reporting per-layer metrics and spans; 0: untraced end-to-end run")
		out        = flag.String("out", ".bench_build/out", "directory for results files, spans and scratch data")
		root       = flag.String("root", ".", "repository root the benchmark runs against")
		servd      = flag.String("servd", "", "thermservd binary (default <root>/.bench_build/bin/thermservd)")
		compare    = flag.Bool("compare", false, "compare two results directories given as arguments: -compare A B")
		spec       = flag.String("spec", "", "BENCHMARK.json holding the bounds for -compare (default <root>/BENCHMARK.json)")
		child      = flag.String("child", "", "run as the batch child for this workload (used by the benchmark itself)")
		childSetup = flag.Bool("child-setup", false, "with -child: only instantiate and step every config once")
	)
	flag.Parse()

	if *child != "" {
		if err := bench.Child(os.Stdout, *child, *childSetup, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	// The load generator is one process on at most two cores.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results directories"))
		}
		if *spec == "" {
			*spec = filepath.Join(*root, "BENCHMARK.json")
		}
		os.Exit(runCompare(*spec, flag.Arg(0), flag.Arg(1)))
	}

	if *servd == "" {
		*servd = filepath.Join(*root, ".bench_build", "bin", "thermservd")
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	for _, p := range []string{filepath.Join(*root, "go.mod"), *servd} {
		if _, err := os.Stat(p); err != nil {
			fatal(fmt.Errorf("%w (run from the repository root through bench/run.sh)", err))
		}
	}
	o := bench.Options{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Servd: *servd, Self: self, Out: *out,
	}
	names := bench.Workloads
	if *workload != "" {
		names = []string{*workload}
	}
	final := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]bench.Metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]bench.Metric{}}
	for _, w := range names {
		r, err := bench.Run(w, o)
		if err != nil {
			fatal(err)
		}
		if _, err := bench.WriteResult(*out, r); err != nil {
			fatal(err)
		}
		fmt.Print(bench.Table(r))
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(names) > 1 {
				k = w + "." + k
			}
			final.Metrics[k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(3)
	}
}

func runCompare(specPath, dirA, dirB string) int {
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	a, err := bench.LoadResults(dirA)
	if err != nil {
		fatal(err)
	}
	b, err := bench.LoadResults(dirB)
	if err != nil {
		fatal(err)
	}
	rows := bench.Compare(spec, a, b)
	fmt.Print(bench.FormatRows(rows))
	for _, r := range rows {
		if r.Verdict == bench.Worse {
			return 1
		}
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thermbench:", err)
	os.Exit(1)
}
