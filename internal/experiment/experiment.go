// Package experiment reproduces every table and figure of the paper's
// evaluation (Section 5). Each experiment has a typed runner returning
// the data series plus a formatter that prints rows shaped like the
// paper's. Artifacts is the one list of what gets rendered and in what
// order; WriteArtifacts renders any subset of it for cmd/figures and
// the thermbal facade.
package experiment

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"thermbal/internal/bus"
	"thermbal/internal/dvfs"
	"thermbal/internal/migrate"
	"thermbal/internal/policy"
	"thermbal/internal/power"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/task"
	"thermbal/internal/thermal"
)

// PackageSel selects the thermal package (paper Section 4).
type PackageSel int

const (
	// Mobile is the mobile-embedded package (slow dynamics).
	Mobile PackageSel = iota
	// HighPerf is the high-performance package (6x faster).
	HighPerf
)

// String names the selection.
func (p PackageSel) String() string {
	if p == HighPerf {
		return "high-performance"
	}
	return "mobile-embedded"
}

// Package returns the thermal parameters.
func (p PackageSel) Package() thermal.Package {
	if p == HighPerf {
		return thermal.HighPerformance()
	}
	return thermal.MobileEmbedded()
}

// The three policies the paper compares (Section 5.2), by canonical
// registry name.
const (
	energyBalance  = "energy-balance"
	stopGo         = "stop-go"
	thermalBalance = "thermal-balance"
)

// Defaults shared by the sweep experiments.
const (
	// DefaultWarmupS is the paper's first execution phase (12.5 s).
	DefaultWarmupS = 12.5
	// DefaultMeasureS is the measurement window after the policy
	// engages.
	DefaultMeasureS = 30.0
)

// Deltas is the paper's threshold sweep: distance of the upper/lower
// thresholds from the mean temperature, in °C.
var Deltas = []float64{2, 3, 4, 5}

// Phases resolves a run's warmup/measure phases: explicit values where
// positive, else the scenario's defaults, else the paper's. The one
// cascade shared by Run, the service's request canonicalization (the
// cache identity) and the sync-endpoint simulated-time bounds — so
// what is keyed, what is bounded and what executes can never diverge.
// It rejects a non-finite phase and a window whose end tick does not
// fit an int64.
func Phases(sc scenario.Scenario, warmupS, measureS float64) (float64, float64, error) {
	if !finite(warmupS) {
		return 0, 0, fmt.Errorf("warm-up %g s is not finite", warmupS)
	}
	if !finite(measureS) {
		return 0, 0, fmt.Errorf("measure window %g s is not finite", measureS)
	}
	if warmupS <= 0 {
		if sc.WarmupS > 0 {
			warmupS = sc.WarmupS
		} else {
			warmupS = DefaultWarmupS
		}
	}
	if measureS <= 0 {
		if sc.MeasureS > 0 {
			measureS = sc.MeasureS
		} else {
			measureS = DefaultMeasureS
		}
	}
	// sim.Engine.TickAt rounds t/TickS to the nearest tick; float64
	// MaxInt64 is 2^63, the first value past the int64 range.
	if (warmupS+measureS)/sim.DefaultTickS+0.5 >= math.MaxInt64 {
		return 0, 0, fmt.Errorf("window of %g s + %g s overflows the %g s tick counter", warmupS, measureS, sim.DefaultTickS)
	}
	return warmupS, measureS, nil
}

// QueueCap resolves a run's queue capacity: queueCap where positive,
// else the scenario's graph default. Like Phases, it is the one cascade
// Run and the request canonicalization share.
func QueueCap(sc scenario.Scenario, queueCap int) int {
	if queueCap > 0 {
		return queueCap
	}
	return sc.Graph.QueueCap
}

// finite reports whether x is neither NaN nor an infinity.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// CheckDelta rejects a threshold delta that is negative or not finite.
func CheckDelta(delta float64) error {
	if delta < 0 || !finite(delta) {
		return fmt.Errorf("threshold delta %g is negative or not finite", delta)
	}
	return nil
}

// RunConfig fully describes one simulation run.
type RunConfig struct {
	Delta     float64 // threshold for stop-go/thermal-balance
	Package   PackageSel
	WarmupS   float64 // default DefaultWarmupS (or the scenario's)
	MeasureS  float64 // default DefaultMeasureS (or the scenario's)
	Mechanism migrate.Mechanism
	QueueCap  int // default: the scenario's graph.queue_cap
	Trace     bool
	// Thermal selects the RC-network integration scheme (zero value =
	// explicit Euler).
	Thermal thermal.Config

	// Scenario names a registered scenario; empty selects "sdr-radio",
	// the paper's benchmark (preserving pre-registry behavior).
	Scenario string
	// Resolved, when non-nil, is the scenario to run in place of a
	// catalogue lookup: an inline spec resolved by scenario.FromSpec, or
	// a catalogue entry. Mutually exclusive with Scenario.
	Resolved *scenario.Scenario
	// PolicyName constructs the policy through the policy registry. It
	// accepts any registered name or alias ("stop-go", "tb", ...).
	PolicyName string

	// Balancer knobs (thermal-balance only; zero = policy defaults).
	// Used by the ablation studies.
	MinInterval float64
	TopK        int
	MaxFreezeS  float64

	// NoFastPath disables the engine's event-horizon fast path (results
	// are bit-for-bit identical either way; used for A/B validation).
	NoFastPath bool
}

// Run executes one configuration and returns its summary. The engine is
// also returned for callers needing traces or raw state.
//
// The engine always runs in two calls: to its WarmupEnd, the last
// sensor boundary before the policy starts, and on to the end of the
// measurement window. The first leg does not depend on the policy,
// its arguments, δ or the measurement window, so it is simulated once
// per process for each warm-up key and restored from a checkpoint into
// every later run that shares it (see warmupKey). A restored run is
// bit-for-bit the run that simulated its warm-up: same document, same
// Profile. A traced run records its warm-up's timeline, which no
// checkpoint holds, so it always simulates its warm-up.
func Run(rc RunConfig) (sim.Result, *sim.Engine, error) {
	if rc.Trace {
		return run(rc, nil)
	}
	return run(rc, warmups)
}

// run is Run with the warm-up taken from wc; a nil wc simulates it.
func run(rc RunConfig, wc *warmupCache) (sim.Result, *sim.Engine, error) {
	if err := CheckDelta(rc.Delta); err != nil {
		return sim.Result{}, nil, fmt.Errorf("experiment: %w", err)
	}
	sc, err := rc.scenario()
	if err != nil {
		return sim.Result{}, nil, err
	}
	hash, err := sc.Hash()
	if err != nil {
		return sim.Result{}, nil, err
	}
	// Scenario-specific default phases (many-core scenarios use shorter
	// windows); the paper defaults apply where the scenario sets none.
	if rc.WarmupS, rc.MeasureS, err = Phases(sc, rc.WarmupS, rc.MeasureS); err != nil {
		return sim.Result{}, nil, fmt.Errorf("experiment: %w", err)
	}
	rc.QueueCap = QueueCap(sc, rc.QueueCap)
	inst, err := sc.Instantiate(scenario.Options{
		QueueCap: rc.QueueCap,
		Package:  rc.Package.Package(),
	})
	if err != nil {
		return sim.Result{}, nil, err
	}
	pol, err := policy.New(rc.PolicyName, policy.Args{
		Delta:       rc.Delta,
		MinInterval: rc.MinInterval,
		TopK:        rc.TopK,
		MaxFreezeS:  rc.MaxFreezeS,
	})
	if err != nil {
		return sim.Result{}, nil, err
	}
	e, err := sim.New(sim.Config{
		PolicyStartS:  rc.WarmupS,
		MeasureStartS: rc.WarmupS,
		Mechanism:     rc.Mechanism,
		RecordTrace:   rc.Trace,
		Thermal:       rc.Thermal,
		Modulate:      inst.Modulate,
		NoFastPath:    rc.NoFastPath,
	}, inst.Platform, inst.Graph, pol)
	if err != nil {
		return sim.Result{}, nil, err
	}
	if rc.Delta > 0 {
		e.SetOvershootDelta(rc.Delta)
	}
	end := e.TickAt(rc.WarmupS + rc.MeasureS)
	key := warmupKey{
		scenario:   hash,
		pkg:        rc.Package,
		queueCap:   rc.QueueCap,
		mech:       rc.Mechanism,
		thermal:    rc.Thermal,
		noFastPath: rc.NoFastPath,
		fork:       min(e.WarmupEnd(), end),
	}
	if err := wc.warm(key, e); err != nil {
		return sim.Result{}, nil, err
	}
	if err := e.RunTo(end); err != nil {
		return sim.Result{}, nil, err
	}
	return e.Summarize(), e, nil
}

// scenario returns the scenario rc runs: Resolved, else the catalogue
// entry Scenario names (empty: the paper's benchmark).
func (rc RunConfig) scenario() (scenario.Scenario, error) {
	if rc.Resolved == nil {
		return scenario.Lookup(cmp.Or(rc.Scenario, scenario.DefaultName))
	}
	if rc.Scenario != "" {
		return scenario.Scenario{}, fmt.Errorf("experiment: Scenario %q and Resolved are mutually exclusive", rc.Scenario)
	}
	return *rc.Resolved, nil
}

// ---------------------------------------------------------------------
// Table 1 — component power in 0.09 µm CMOS.

// Table1Row is one component entry.
type Table1Row struct {
	Component string
	MaxPowerW float64
}

// Table1 returns the component power table the models are anchored to.
func Table1() []Table1Row {
	return []Table1Row{
		{"RISC32-streaming (Conf1)", power.RISC32StreamingMaxW},
		{"RISC32-ARM11 (Conf2)", power.RISC32ARM11MaxW},
		{"DCache 8kB/2way", power.DCacheMaxW},
		{"ICache 8kB/DM", power.ICacheMaxW},
		{"Memory 32kB", power.SharedMemMaxW},
	}
}

// FormatTable1 renders the table like the paper's.
func FormatTable1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Power of components in 0.09 um CMOS (Max. Power @ 500 MHz)\n")
	for _, r := range Table1() {
		fmt.Fprintf(&b, "  %-26s %6.3f W\n", r.Component, r.MaxPowerW)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Table 2 — application mapping.

// Table2Row is one (core, task) entry with the load at the core's
// running frequency.
type Table2Row struct {
	Core    int
	FreqMHz float64
	Task    string
	LoadPct float64
}

// Table2 derives the static energy-balanced mapping: task placement
// from the compiled sdr-radio scenario, frequencies from the DVFS
// ladder, with the per-core derivations spread across opt's worker
// pool.
func Table2(ctx context.Context, opt Options) ([]Table2Row, error) {
	sc, err := scenario.Lookup(scenario.DefaultName)
	if err != nil {
		return nil, err
	}
	inst, err := sc.Instantiate(scenario.Options{})
	if err != nil {
		return nil, err
	}
	g := inst.Graph
	ladder := dvfs.Default()
	// Per-core FSE sums -> frequency.
	const nCores = 3
	freqByCore := make([]float64, nCores)
	if err := opt.ForEach(ctx, nCores, func(_ context.Context, c int) error {
		freqByCore[c] = ladder.LevelFor(task.TotalFSE(task.OnCore(g.Tasks(), c)))
		return nil
	}); err != nil {
		return nil, err
	}
	freq := map[int]float64{}
	for c, f := range freqByCore {
		freq[c] = f
	}
	var rows []Table2Row
	// Paper order: core 1 (BPF1, DEMOD), core 2 (BPF2, SUM),
	// core 3 (BPF3, LPF).
	order := []string{"BPF1", "DEMOD", "BPF2", "SUM", "BPF3", "LPF"}
	for _, name := range order {
		ti, ok := g.TaskIndex(name)
		if !ok {
			return nil, fmt.Errorf("experiment: task %s missing", name)
		}
		t := g.Task(ti)
		rows = append(rows, Table2Row{
			Core:    t.Core + 1,
			FreqMHz: freq[t.Core] / 1e6,
			Task:    name,
			LoadPct: 100 * ladder.UtilizationAt(t.FSE, freq[t.Core]),
		})
	}
	return rows, nil
}

// FormatTable2 renders the mapping like the paper's Table 2.
func FormatTable2() (string, error) {
	rows, err := Table2(context.Background(), Options{})
	if err != nil {
		return "", err
	}
	return FormatTable2Rows(rows), nil
}

// FormatTable2Rows renders pre-computed mapping rows like the paper's
// Table 2.
func FormatTable2Rows(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Application mapping\n")
	b.WriteString("  Core / freq.        Task    Load [%]\n")
	last := -1
	for _, r := range rows {
		label := ""
		if r.Core != last {
			label = fmt.Sprintf("Core %d (%d MHz)", r.Core, int(r.FreqMHz))
			last = r.Core
		}
		fmt.Fprintf(&b, "  %-18s  %-6s  %5.1f\n", label, r.Task, r.LoadPct)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 2 — migration cost vs task size for the two mechanisms.

// Fig2Row is one (size, mechanism) cost point.
type Fig2Row struct {
	TaskSizeKB  int
	Replication float64 // cost in processor cycles at 533 MHz
	Recreation  float64
}

// Fig2Sizes is the default task-size sweep.
var Fig2Sizes = []int{16, 32, 64, 128, 256, 384, 512}

// measureMigrationCost simulates one migration of a sizeKB task on a
// private bus and returns its freeze duration in processor cycles.
func measureMigrationCost(mech migrate.Mechanism, sizeKB int) (float64, error) {
	const fHz = power.DefaultFMaxHz
	b := bus.New(bus.Params{})
	m := migrate.NewManager(b, mech)
	t := task.MustNew("probe", 0.3)
	t.StateBytes = float64(sizeKB << 10)
	t.CodeBytes = float64(sizeKB << 10) // image scales with task size
	t.Core = 0
	mg, err := m.Request(t, 0, 1, 0)
	if err != nil {
		return 0, err
	}
	if _, err := m.AtCheckpoint(0, 0); err != nil {
		return 0, err
	}
	// now is derived from the step count rather than accumulated, so the
	// probe clock cannot drift over the 10^7-step budget.
	const h = 1e-4
	for i := 0; i < 10_000_000 && mg.Phase != migrate.Done; i++ {
		b.Advance(h)
		m.Advance(float64(i+1) * h)
	}
	if mg.Phase != migrate.Done {
		return 0, fmt.Errorf("experiment: migration of %d KB never finished", sizeKB)
	}
	return mg.FreezeDuration() * fHz, nil
}

// Fig2 measures, by direct simulation of the middleware and bus, the
// migration cost in processor cycles as a function of task size. Every
// (size, mechanism) probe runs on opt's worker pool with its own bus
// and middleware, so results match the serial order exactly.
func Fig2(ctx context.Context, opt Options, sizesKB []int) ([]Fig2Row, error) {
	if len(sizesKB) == 0 {
		sizesKB = Fig2Sizes
	}
	type probe struct {
		sizeKB int
		mech   migrate.Mechanism
	}
	probes := make([]probe, 0, 2*len(sizesKB))
	for _, kb := range sizesKB {
		probes = append(probes, probe{kb, migrate.Replication}, probe{kb, migrate.Recreation})
	}
	costs, err := collect(ctx, opt.Runner, probes, func(_ context.Context, p probe) (float64, error) {
		return measureMigrationCost(p.mech, p.sizeKB)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig2Row, 0, len(sizesKB))
	for i, kb := range sizesKB {
		rows = append(rows, Fig2Row{TaskSizeKB: kb, Replication: costs[2*i], Recreation: costs[2*i+1]})
	}
	return rows, nil
}

// FormatFig2 renders the cost curves.
func FormatFig2(rows []Fig2Row) string {
	var b strings.Builder
	b.WriteString("Figure 2: Migration cost (Mcycles @533 MHz) vs task size\n")
	b.WriteString("  size_KB   task-replication   task-recreation\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %7d   %16.2f   %15.2f\n", r.TaskSizeKB, r.Replication/1e6, r.Recreation/1e6)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figures 7-11 — the threshold sweeps.

// SweepPoint is one (policy, delta) outcome.
type SweepPoint struct {
	Policy string // canonical policy name
	Delta  float64
	Result sim.Result
}

// Sweep runs the three policies across the threshold values for one
// package on opt's worker pool. energy-balance has no threshold, so it
// runs once and its result is replicated across the delta axis (the
// paper plots it as a flat reference line). Point order and values are
// identical for any worker count.
func Sweep(ctx context.Context, opt Options, pkg PackageSel, deltas []float64) ([]SweepPoint, error) {
	if len(deltas) == 0 {
		deltas = Deltas
	}
	policies := []string{stopGo, thermalBalance}
	cfgs := make([]RunConfig, 0, 1+len(policies)*len(deltas))
	cfgs = append(cfgs, RunConfig{PolicyName: energyBalance, Package: pkg, Thermal: opt.Thermal, Resolved: opt.Scenario})
	for _, pol := range policies {
		for _, d := range deltas {
			cfgs = append(cfgs, RunConfig{PolicyName: pol, Delta: d, Package: pkg, Thermal: opt.Thermal, Resolved: opt.Scenario})
		}
	}
	results, err := RunAll(ctx, opt.Runner, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, 0, (1+len(policies))*len(deltas))
	for _, d := range deltas {
		out = append(out, SweepPoint{Policy: energyBalance, Delta: d, Result: results[0]})
	}
	i := 1
	for _, pol := range policies {
		for _, d := range deltas {
			out = append(out, SweepPoint{Policy: pol, Delta: d, Result: results[i]})
			i++
		}
	}
	return out, nil
}

// series extracts, for each policy, the metric across deltas.
func series(points []SweepPoint, deltas []float64, metric func(sim.Result) float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, pol := range []string{energyBalance, stopGo, thermalBalance} {
		vals := make([]float64, len(deltas))
		for i, d := range deltas {
			for _, p := range points {
				if p.Policy == pol && p.Delta == d {
					vals[i] = metric(p.Result)
				}
			}
		}
		out[pol] = vals
	}
	return out
}

// FormatStdDevFigure renders Figures 7 (mobile) / 9 (high-perf):
// temperature standard deviation vs threshold. Both the pooled
// (space+time, the headline) and the purely spatial columns are shown
// because the paper's Section 5 metric covers spatial and temporal
// variance.
func FormatStdDevFigure(fig string, pkg PackageSel, points []SweepPoint, deltas []float64) string {
	if len(deltas) == 0 {
		deltas = Deltas
	}
	pooled := series(points, deltas, func(r sim.Result) float64 { return r.PooledStdDev })
	spatial := series(points, deltas, func(r sim.Result) float64 { return r.SpatialStdDev })
	var b strings.Builder
	fmt.Fprintf(&b, "%s: Temperature standard deviation [°C] vs threshold (%s)\n", fig, pkg)
	b.WriteString("  delta   energy-balance      stop&go             thermal-balance\n")
	b.WriteString("          pooled  spatial     pooled  spatial     pooled  spatial\n")
	for i, d := range deltas {
		fmt.Fprintf(&b, "  %5.0f   %6.3f  %7.3f     %6.3f  %7.3f     %6.3f  %7.3f\n", d,
			pooled[energyBalance][i], spatial[energyBalance][i],
			pooled[stopGo][i], spatial[stopGo][i],
			pooled[thermalBalance][i], spatial[thermalBalance][i])
	}
	return b.String()
}

// FormatMissFigure renders Figures 8 (mobile) / 10 (high-perf):
// deadline misses vs threshold, over the points' measurement window.
func FormatMissFigure(fig string, pkg PackageSel, points []SweepPoint, deltas []float64) string {
	if len(deltas) == 0 {
		deltas = Deltas
	}
	window := DefaultMeasureS
	if len(points) > 0 {
		window = points[0].Result.MeasuredS
	}
	misses := series(points, deltas, func(r sim.Result) float64 { return float64(r.DeadlineMisses) })
	rate := series(points, deltas, func(r sim.Result) float64 { return r.MissRatePct })
	var b strings.Builder
	fmt.Fprintf(&b, "%s: Deadline misses vs threshold (%s, %gs window)\n", fig, pkg, window)
	b.WriteString("  delta   energy-balance     stop&go            thermal-balance\n")
	b.WriteString("          misses  rate%      misses  rate%      misses  rate%\n")
	for i, d := range deltas {
		fmt.Fprintf(&b, "  %5.0f   %6.0f  %5.2f      %6.0f  %5.2f      %6.0f  %5.2f\n", d,
			misses[energyBalance][i], rate[energyBalance][i],
			misses[stopGo][i], rate[stopGo][i],
			misses[thermalBalance][i], rate[thermalBalance][i])
	}
	return b.String()
}

// Fig11Point is one (package, delta) migration-rate sample.
type Fig11Point struct {
	Package PackageSel
	Delta   float64
	PerSec  float64
	KBps    float64
}

// Fig11 extracts the thermal-balance migration rates for both packages
// from pre-computed sweeps.
func Fig11(mobile, highperf []SweepPoint, deltas []float64) []Fig11Point {
	if len(deltas) == 0 {
		deltas = Deltas
	}
	var out []Fig11Point
	for _, set := range []struct {
		pkg    PackageSel
		points []SweepPoint
	}{{Mobile, mobile}, {HighPerf, highperf}} {
		rates := series(set.points, deltas, func(r sim.Result) float64 { return r.MigrationsPerSec })
		kbps := series(set.points, deltas, func(r sim.Result) float64 { return r.BytesPerSec / 1024 })
		for i, d := range deltas {
			out = append(out, Fig11Point{
				Package: set.pkg,
				Delta:   d,
				PerSec:  rates[thermalBalance][i],
				KBps:    kbps[thermalBalance][i],
			})
		}
	}
	return out
}

// FormatFig11 renders the migrations-per-second figure, one row per
// delta present in points, ascending.
func FormatFig11(points []Fig11Point) string {
	var b strings.Builder
	b.WriteString("Figure 11: Migrations per second (thermal-balance) for both systems\n")
	b.WriteString("  delta   mobile (mig/s, KB/s)   high-perf (mig/s, KB/s)\n")
	byKey := map[string]Fig11Point{}
	var deltas []float64
	for _, p := range points {
		byKey[fmt.Sprintf("%v-%g", p.Package, p.Delta)] = p
		deltas = append(deltas, p.Delta)
	}
	slices.Sort(deltas)
	for _, d := range slices.Compact(deltas) {
		m := byKey[fmt.Sprintf("%v-%g", Mobile, d)]
		h := byKey[fmt.Sprintf("%v-%g", HighPerf, d)]
		fmt.Fprintf(&b, "  %5.0f   %6.2f  %8.1f       %6.2f  %8.1f\n", d, m.PerSec, m.KBps, h.PerSec, h.KBps)
	}
	return b.String()
}
