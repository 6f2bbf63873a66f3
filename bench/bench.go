// Package bench is thermbal's end-to-end benchmark: four workloads
// that each run their system under test in a fresh process — a child
// of the benchmark binary for the batch sweeps, the real thermservd
// binary for the service traffic mixes — measure what a user waits
// for, and check every output for correctness. A separate traced run
// times the calls into each layer's public functions from the
// benchmark's own code and reports per-layer costs with the residual
// they leave unexplained. cmd/thermbench is the command; README.md
// explains the workloads, the metrics and their bounds.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// better says which direction of a metric is an improvement.
type better string

const (
	lower  better = "lower"
	higher better = "higher"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better better
}

// EndToEnd lists the gated metrics every workload reports untraced, in
// BENCHMARK.json order. latency_ms is the best-of-N pass time for the
// batch sweeps and the median open-loop latency at the high rate for
// the services (README.md has the table).
var EndToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"latency_ms", "ms", lower},
	{"rss_mb", "MiB", lower},
}

// PerLayer lists the metrics every workload reports traced, in
// BENCHMARK.json order. A layer that does no work on a workload
// reports 0.
var PerLayer = []metricDef{
	{"thermal.advance.calls", "count", lower},
	{"thermal.advance.self_us", "us", lower},
	{"thermal.substeps", "count", lower},
	{"thermal.share", "%", lower},
	{"thermal.expm.builds", "count", lower},
	{"thermal.expm.hit_ratio", "ratio", higher},
	{"policy.decide.calls", "count", lower},
	{"policy.decide.self_us", "us", lower},
	{"policy.actions", "count", lower},
	{"policy.share", "%", lower},
	{"sim.period_us.p50", "us", lower},
	{"sim.period_us.p99", "us", lower},
	{"sim.self_us", "us", lower},
	{"sim.share", "%", lower},
	{"sim.ticks_per_host_s", "1/s", higher},
	{"sim.speed", "s/s", higher},
	{"scenario.instantiate_us", "us", lower},
	{"experiment.summarize_us", "us", lower},
	{"service.canonicalize_us", "us", lower},
	{"service.encode_us", "us", lower},
	{"service.body_bytes", "bytes", lower},
	{"service.handler_us.miss", "us", lower},
	{"service.handler_us.hit", "us", lower},
	{"service.handler_us.store", "us", lower},
	{"service.cpu_ms_per_req", "ms", lower},
	{"http.residual_us", "us", lower},
	{"store.put_us", "us", lower},
	{"store.get_us", "us", lower},
	{"store.open_ms", "ms", lower},
	{"store.bytes", "bytes", lower},
	{"xt.queue_us.p50", "us", lower},
	{"xt.execute_us.p50", "us", lower},
	{"xt.encode_us.p50", "us", lower},
	{"xt.store_us.p50", "us", lower},
	{"xt.total_us.p50", "us", lower},
	{"xc.hit", "ratio", higher},
	{"xc.store", "ratio", lower},
	{"xc.miss", "ratio", lower},
	{"xc.coalesced", "ratio", lower},
	{"gen.late_us.p50", "us", lower},
	{"gen.late_us.p99", "us", lower},
	{"lo.p50_ms", "ms", lower},
	{"lo.p90_ms", "ms", lower},
	{"lo.p99_ms", "ms", lower},
	{"hi.p50_ms", "ms", lower},
	{"hi.p90_ms", "ms", lower},
	{"hi.p99_ms", "ms", lower},
	{"residual_pct", "%", lower},
	{"trace.overhead_pct", "%", lower},
}

// Workloads names the four workloads in run order.
var Workloads = []string{"paper-sweep", "manycore", "serve-cold", "serve-hot"}

// Options configures one workload run.
type Options struct {
	// Seed drives every generated input: run order, request keys and
	// key draws. The same seed gives the same inputs.
	Seed int64
	// Seconds is how long the run measures.
	Seconds float64
	// Trace selects the traced run (per-layer metrics) over the
	// untraced one (end-to-end metrics).
	Trace bool
	// Servd is the thermservd binary the service workloads spawn.
	Servd string
	// Self is the benchmark binary, re-executed as the batch child.
	Self string
	// Out receives results files, trace spans and scratch data.
	Out string

	// lim shrinks the fixed workload sizes; nil selects fullLimits.
	lim *limits
	// scratch holds the run's data directories; Run removes it.
	scratch string
}

// limits are the fixed sizes of the workloads that do not scale with
// Seconds. Tests shrink them to run all four workloads quickly.
type limits struct {
	// Set-up is timed at least setupMin times and then again until
	// setupBudget has passed, at most setupMax times; setup_s is the
	// median. A process start of 6–20 ms is mostly package init, whose
	// time is bimodal on a shared host; the median of 25 starts moved
	// by 20–40 % between runs, the median of 100–200 mostly by 5–17 %.
	setupMin, setupMax int
	setupBudget        time.Duration
	hotKeys            int // serve-hot: prefilled keys
	traceCold          int // serve-cold traced replay: requests
	traceHot           int // serve-hot traced replay: draws
	handlerProbe       int // service traced run: requests timed through the in-process handler
}

var fullLimits = limits{
	setupMin:     5,
	setupMax:     200,
	setupBudget:  3 * time.Second,
	hotKeys:      4096,
	traceCold:    1000,
	traceHot:     20000,
	handlerProbe: 100,
}

// timeSetups runs one timed set-up repeatedly per the limits and
// records the median as setup_s. setup returns the time it measured.
func timeSetups(lim limits, rec *recorder, setup func(k int) (time.Duration, error)) error {
	start := time.Now()
	var xs []float64
	for k := 0; k < lim.setupMax && (k < lim.setupMin || time.Since(start) < lim.setupBudget); k++ {
		d, err := setup(k)
		if err != nil {
			return err
		}
		xs = append(xs, d.Seconds())
	}
	rec.set("setup_s", median(xs), len(xs))
	return nil
}

func (o Options) limits() limits {
	if o.lim != nil {
		return *o.lim
	}
	return fullLimits
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one workload run: the last-line JSON object the benchmark
// prints plus, in the results file, sample counts and failure notes.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Samples counts the observations behind each metric that has more
	// than one.
	Samples map[string]int `json:"samples"`
	// Diagnostics are ungated numbers kept for reading: distribution
	// quantiles that move with host noise, peak RSS.
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	// Notes describes the first failures (capped) and sample counts too
	// small for a reported percentile.
	Notes     []string `json:"notes,omitempty"`
	WallS     float64  `json:"wall_s"`
	GoVersion string   `json:"go_version"`
	NumCPU    int      `json:"num_cpu"`
}

// maxNotes caps the failure notes kept per run.
const maxNotes = 20

// recorder accumulates a run's metrics, sample counts and failures.
// Load generators record from several goroutines, so every method
// locks.
type recorder struct {
	mu  sync.Mutex
	res Result
}

func newRecorder(workload string, o Options) *recorder {
	return &recorder{res: Result{
		Workload:  workload,
		Seed:      o.Seed,
		Trace:     o.Trace,
		Metrics:   map[string]Metric{},
		Samples:   map[string]int{},
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}}
}

// set records a metric; its unit comes from the catalogue.
func (r *recorder) set(name string, v float64, n int) {
	unit := unitOf(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Metrics[name] = Metric{Value: v, Unit: unit}
	if n > 1 {
		r.res.Samples[name] = n
	}
}

// diag records an ungated diagnostic.
func (r *recorder) diag(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.res.Diagnostics == nil {
		r.res.Diagnostics = map[string]float64{}
	}
	r.res.Diagnostics[name] = v
}

// ops counts n attempted operations.
func (r *recorder) ops(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Attempted += n
}

// op counts one attempted operation and, when err is non-nil, its
// failure.
func (r *recorder) op(err error) {
	r.ops(1)
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failure of an operation already counted as attempted.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	r.res.Failed++
	r.mu.Unlock()
	r.note(err.Error())
}

func (r *recorder) note(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.res.Notes) < maxNotes {
		r.res.Notes = append(r.res.Notes, s)
	}
}

// unitOf looks a metric's unit up in the catalogues.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{EndToEnd, PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

// finish fills every catalogued metric of the run's kind the workload
// did not set with 0 (a layer doing no work), drops anything else and
// decides correctness.
func (r *recorder) finish(start time.Time) Result {
	defs := EndToEnd
	if r.res.Trace {
		defs = PerLayer
	}
	kept := map[string]Metric{}
	for _, d := range defs {
		m, ok := r.res.Metrics[d.Name]
		if !ok {
			m = Metric{Unit: d.Unit}
		}
		kept[d.Name] = m
	}
	r.res.Metrics = kept
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	r.res.WallS = time.Since(start).Seconds()
	return r.res
}

// Run executes one workload.
func Run(workload string, o Options) (Result, error) {
	start := time.Now()
	tmp := filepath.Join(o.Out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return Result{}, err
	}
	scratch, err := os.MkdirTemp(tmp, workload+"-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(scratch)
	o.scratch = scratch
	rec := newRecorder(workload, o)
	switch workload {
	case "paper-sweep", "manycore":
		if o.Trace {
			err = traceBatch(workload, o, rec)
		} else {
			err = runBatch(workload, o, rec)
		}
	case "serve-cold":
		if o.Trace {
			err = traceCold(o, rec)
		} else {
			err = runCold(o, rec)
		}
	case "serve-hot":
		if o.Trace {
			err = traceHot(o, rec)
		} else {
			err = runHot(o, rec)
		}
	default:
		return Result{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, Workloads)
	}
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", workload, err)
	}
	return rec.finish(start), nil
}

// WriteResult stores r as one JSON file under dir, named so that runs
// never overwrite each other.
func WriteResult(dir string, r Result) (string, error) {
	kind := "untraced"
	if r.Trace {
		kind = "traced"
	}
	name := fmt.Sprintf("%s.seed%d.%s.%d.json", r.Workload, r.Seed, kind, time.Now().UnixNano())
	path := filepath.Join(dir, name)
	return path, writeJSON(path, r)
}

// Table renders a result's metrics one per line with units and sample
// counts, in catalogue order.
func Table(r Result) string {
	defs := EndToEnd
	if r.Trace {
		defs = PerLayer
	}
	s := fmt.Sprintf("%s seed=%d trace=%v: attempted=%d failed=%d correct=%v wall=%.1fs\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Correct, r.WallS)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		n := ""
		if c, ok := r.Samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		s += fmt.Sprintf("  %-26s %14.4f %-6s%s\n", d.Name, m.Value, m.Unit, n)
	}
	keys := make([]string, 0, len(r.Diagnostics))
	for k := range r.Diagnostics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s += fmt.Sprintf("  %-26s %14.4f (diagnostic)\n", k, r.Diagnostics[k])
	}
	for _, n := range r.Notes {
		s += "  note: " + n + "\n"
	}
	return s
}
