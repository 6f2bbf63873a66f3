package bench

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/service"
	"thermbal/internal/sim"
)

// sensorPeriodS is the engine's default sensor/policy period (10 ms,
// the paper's monitoring rate); the traced replay steps the engine one
// period per Run call and batch set-up steps each config once.
const sensorPeriodS = 0.01

// runCase is one batch configuration, canonicalized exactly as the
// service would so its document digest is comparable everywhere.
type runCase struct {
	label string
	canon service.Request
	rc    experiment.RunConfig
}

// batchRequests lists a batch workload's configurations in canonical
// order (each pass runs them in a seed-shuffled order).
func batchRequests(workload string) []service.Request {
	var reqs []service.Request
	switch workload {
	case "paper-sweep":
		// The paper's evaluation: three policies × the δ sweep × both
		// packages on the 3-core SDR radio, paper windows, Euler.
		for _, pol := range []string{"energy-balance", "stop-go", "thermal-balance"} {
			for _, d := range experiment.Deltas {
				for _, pkg := range []string{"mobile", "high-performance"} {
					reqs = append(reqs, service.Request{
						Scenario: "sdr-radio", Policy: pol, Delta: d, Package: pkg,
						WarmupS: experiment.DefaultWarmupS, MeasureS: experiment.DefaultMeasureS,
						Integrator: "euler",
					})
				}
			}
		}
	case "manycore":
		// 64 cores is the largest die on which expm propagates densely;
		// 256 always falls back to sparse Euler substepping.
		for _, sc := range []string{"manycore-64", "manycore-256"} {
			for _, ig := range []string{"euler", "expm"} {
				reqs = append(reqs, service.Request{
					Scenario: sc, Policy: "thermal-balance", Delta: 2, Package: "mobile",
					WarmupS: 1, MeasureS: 2, Integrator: ig,
				})
			}
		}
	}
	return reqs
}

// batchCases canonicalizes a batch workload's configurations.
func batchCases(workload string) ([]runCase, error) {
	reqs := batchRequests(workload)
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%q is not a batch workload", workload)
	}
	out := make([]runCase, len(reqs))
	for i, req := range reqs {
		canon, rc, err := service.Canonicalize(req)
		if err != nil {
			return nil, err
		}
		out[i] = runCase{
			label: fmt.Sprintf("%s/%s/d%g/%s/%s", canon.Scenario, canon.Policy, canon.Delta, canon.Package, canon.Integrator),
			canon: canon,
			rc:    rc,
		}
	}
	return out, nil
}

//go:embed golden.json
var goldenJSON []byte

// golden maps workload → config label → SHA-256 of the config's
// encoded run document (EncodeDoc(NewRunDoc(canon, result))).
func golden() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// encodeRun renders a run as the service would serve it, after
// checking that every summary value is finite: the service cannot
// encode NaN, and a non-finite temperature is a wrong answer even where
// encoding would succeed.
func encodeRun(canon service.Request, res sim.Result) ([]byte, error) {
	doc := service.NewRunDoc(canon, res)
	if err := checkFinite(doc.Result); err != nil {
		return nil, err
	}
	return service.EncodeDoc(doc)
}

// digest is the hex SHA-256 of an encoded document.
func digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// checkFinite reports the first non-finite float in a run summary.
func checkFinite(s experiment.Summary) error {
	return finiteWalk(reflect.ValueOf(s), "result")
}

func finiteWalk(v reflect.Value, path string) error {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("non-finite %s = %v", path, f)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if err := finiteWalk(v.Field(i), path+"."+t.Field(i).Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// build instantiates rc the way experiment.Run does — scenario lookup
// and instantiation, the policy by name, the engine — with wrap (if
// non-nil) applied to the policy before the engine takes it.
func build(rc experiment.RunConfig, wrap func(policy.Policy) policy.Policy) (*sim.Engine, *scenario.Instance, error) {
	sc, err := scenario.Lookup(rc.Scenario)
	if err != nil {
		return nil, nil, err
	}
	inst, err := sc.Instantiate(scenario.Options{QueueCap: rc.QueueCap, Package: rc.Package.Package()})
	if err != nil {
		return nil, nil, err
	}
	pol, err := policy.New(rc.PolicyName, policy.Args{Delta: rc.Delta})
	if err != nil {
		return nil, nil, err
	}
	if wrap != nil {
		pol = wrap(pol)
	}
	e, err := sim.New(sim.Config{
		PolicyStartS:  rc.WarmupS,
		MeasureStartS: rc.WarmupS,
		Mechanism:     rc.Mechanism,
		Thermal:       rc.Thermal,
		Modulate:      inst.Modulate,
	}, inst.Platform, inst.Graph, pol)
	if err != nil {
		return nil, nil, err
	}
	if rc.Delta > 0 {
		e.SetOvershootDelta(rc.Delta)
	}
	return e, inst, nil
}

// childLine is one JSON line of the batch child's report: a pass's
// run times by config (canonical order) and failures, or, last, the
// child's peak RSS.
type childLine struct {
	Ready    bool      `json:"ready,omitempty"`
	RunS     []float64 `json:"run_s,omitempty"`
	Failures []string  `json:"failures,omitempty"`
	VmHWMMiB float64   `json:"vmhwm_mib,omitempty"`
}

// Child is the batch system under test, run in a fresh process. With
// setupOnly it instantiates every config and steps it one sensor
// period, reports ready and returns: the parent times that as set-up.
// Otherwise it runs passes over the workload's configs — each pass in
// a seed-shuffled order, runs serial — until seconds have elapsed,
// checking every document against its golden digest, and reports one
// line per pass and its peak RSS last.
func Child(w io.Writer, workload string, setupOnly bool, seed int64, seconds float64) error {
	enc := json.NewEncoder(w)
	cases, err := batchCases(workload)
	if err != nil {
		return err
	}
	if setupOnly {
		for _, c := range cases {
			e, _, err := build(c.rc, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", c.label, err)
			}
			if err := e.Run(sensorPeriodS); err != nil {
				return fmt.Errorf("%s: %w", c.label, err)
			}
		}
		return enc.Encode(childLine{Ready: true})
	}
	g, err := golden()
	if err != nil {
		return err
	}
	want := g[workload]
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(pass)))
		line := childLine{RunS: make([]float64, len(cases))}
		for _, i := range rng.Perm(len(cases)) {
			c := cases[i]
			t := time.Now()
			res, _, err := experiment.Run(c.rc)
			line.RunS[i] = time.Since(t).Seconds()
			if err == nil {
				err = checkDigest(c, res, want[c.label])
			}
			if err != nil {
				line.Failures = append(line.Failures, fmt.Sprintf("%s: %v", c.label, err))
			}
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	hwm, err := procMiB("self", "VmHWM")
	if err != nil {
		return err
	}
	return enc.Encode(childLine{VmHWMMiB: hwm})
}

// checkDigest compares a run's encoded document with its golden digest.
func checkDigest(c runCase, res sim.Result, want string) error {
	body, err := encodeRun(c.canon, res)
	if err != nil {
		return err
	}
	if got := digest(body); got != want {
		return fmt.Errorf("document digest %s, golden %s", got, want)
	}
	return nil
}

// procMiB reads a memory field of /proc/<pid>/status ("VmRSS",
// "VmHWM") in MiB.
func procMiB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s not found in /proc/%s/status", field, pid)
}

// rssSampler reads a process's resident set size every 100 ms until
// stopped. The median of the samples is the memory the process holds
// while it works; its peak (VmHWM) is reported only as a diagnostic,
// because it depends on when the garbage collector happened to run.
type rssSampler struct {
	stop chan struct{}
	out  chan []float64
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), out: make(chan []float64, 1)}
	go func() {
		var xs []float64
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.out <- xs
				return
			case <-t.C:
				if v, err := procMiB(pid, "VmRSS"); err == nil {
					xs = append(xs, v)
				}
			}
		}
	}()
	return s
}

// done stops the sampler and returns its samples.
func (s *rssSampler) done() []float64 {
	close(s.stop)
	return <-s.out
}

// childCmd builds the command that re-executes the benchmark binary as
// a batch child.
func childCmd(o Options, workload string, extra ...string) *exec.Cmd {
	args := append([]string{"-child", workload, "-seed", strconv.FormatInt(o.Seed, 10)}, extra...)
	cmd := sutCommand(o.Self, args...)
	cmd.Stderr = os.Stderr
	return cmd
}

// sutCommand builds a system-under-test process that the kernel kills
// when the benchmark exits first, so an interrupted run leaves no batch
// child or server behind.
func sutCommand(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// readChild runs cmd and hands each JSON line of its output to fn. It
// returns the time of the first line relative to the start and the
// child's RSS samples.
func readChild(cmd *exec.Cmd, fn func(childLine) error) (time.Duration, []float64, error) {
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	rss := sampleRSS(strconv.Itoa(cmd.Process.Pid))
	var first time.Duration
	sc := bufio.NewScanner(out)
	var ferr error
	for sc.Scan() {
		if first == 0 {
			first = time.Since(start)
		}
		var line childLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			ferr = fmt.Errorf("child output %q: %w", sc.Text(), err)
			break
		}
		if err := fn(line); err != nil {
			ferr = err
			break
		}
	}
	samples := rss.done()
	if ferr != nil {
		// Stop the child before waiting, so a bad report cannot hang
		// the benchmark on a child still running passes.
		_ = cmd.Process.Kill()
	}
	if err := cmd.Wait(); err != nil && ferr == nil {
		ferr = fmt.Errorf("child: %w", err)
	}
	return first, samples, ferr
}

// runBatch is the untraced batch workload: set-up timed over fresh
// children, then one child running passes for the measured window.
//
// On a shared host other tenants slow individual runs by tens of
// percent for seconds at a time, so a pass median moves with the
// neighbours rather than with the code. The gated pass time is
// therefore best-of-N per config: the sum over configs of each
// config's fastest run in the window (about forty runs each), the pass
// an undisturbed host completes. Pass quantiles and the wall-clock run
// rate are kept as diagnostics.
func runBatch(workload string, o Options, rec *recorder) error {
	err := timeSetups(o.limits(), rec, func(int) (time.Duration, error) {
		ready := false
		d, _, err := readChild(childCmd(o, workload, "-child-setup"), func(l childLine) error {
			ready = l.Ready
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		if !ready {
			return 0, errors.New("set-up child exited without reporting ready")
		}
		return d, nil
	})
	if err != nil {
		return err
	}

	n := len(batchRequests(workload))
	best := make([]float64, n)
	var passes []float64 // ms
	var busy, hwm float64
	var rss []float64
	_, rss, err = readChild(childCmd(o, workload, "-seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64)), func(l childLine) error {
		if l.VmHWMMiB > 0 {
			hwm = l.VmHWMMiB
			return nil
		}
		if len(l.RunS) != n {
			return fmt.Errorf("child reported %d runs in a pass, want %d", len(l.RunS), n)
		}
		var pass float64
		for i, s := range l.RunS {
			pass += s
			if best[i] == 0 || s < best[i] {
				best[i] = s
			}
		}
		passes = append(passes, pass*1e3)
		busy += pass
		rec.ops(n)
		for _, f := range l.Failures {
			rec.fail(errors.New(f))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("passes child: %w", err)
	}
	if len(passes) == 0 || hwm == 0 || len(rss) == 0 {
		return errors.New("passes child reported no passes or no memory")
	}
	var bestPass float64
	for _, b := range best {
		bestPass += b
	}
	rec.set("latency_ms", bestPass*1e3, len(passes))
	rec.set("rss_mb", median(rss), len(rss))
	tailNote(rec, "pass_p75_ms", batchTailP, len(passes))
	rec.diag("pass_p50_ms", median(passes))
	rec.diag("pass_p75_ms", quantile(passes, batchTailP/100.0))
	rec.diag("runs_per_s", float64(n*len(passes))/busy)
	rec.diag("peak_rss_mb", hwm)
	return nil
}
