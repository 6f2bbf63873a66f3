package sim_test

import (
	"math"
	"strings"
	"testing"

	"thermbal/internal/core"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/stream"
	"thermbal/internal/task"
	"thermbal/internal/thermal"
)

// newSDREngine builds the standard experiment stack: the sdr-radio
// scenario on the given package under pol.
func newSDREngine(t *testing.T, cfg sim.Config, pkg thermal.Package, pol policy.Policy) *sim.Engine {
	t.Helper()
	inst := sdrInstance(t, scenario.Options{Package: pkg})
	e, err := sim.New(cfg, inst.Platform, inst.Graph, pol)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sdrInstance compiles the sdr-radio scenario.
func sdrInstance(t *testing.T, o scenario.Options) *scenario.Instance {
	t.Helper()
	sc, err := scenario.Lookup(scenario.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sc.Instantiate(o)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestRunRejectsNonPositiveDuration(t *testing.T) {
	e := newSDREngine(t, sim.Config{}, thermal.MobileEmbedded(), nil)
	if err := e.Run(0); err == nil {
		t.Error("Run(0) accepted")
	}
	if err := e.Run(-1); err == nil {
		t.Error("Run(-1) accepted")
	}
}

func TestNewRejectsUnplacedTask(t *testing.T) {
	inst := sdrInstance(t, scenario.Options{})
	lpf, _ := inst.Graph.TaskIndex("LPF")
	inst.Graph.Task(lpf).Core = 7 // off-platform
	if _, err := sim.New(sim.Config{}, inst.Platform, inst.Graph, nil); err == nil {
		t.Error("engine accepted task on core 7 of a 3-core platform")
	}
}

// Table 2 check: after construction the DVFS governor must assign
// 533/266/266 MHz from the static mapping.
func TestInitialDVFSMatchesTable2(t *testing.T) {
	e := newSDREngine(t, sim.Config{}, thermal.MobileEmbedded(), nil)
	want := []float64{533e6, 266e6, 266e6}
	for c, w := range want {
		if got := e.Platform().Frequency(c); got != w {
			t.Errorf("core%d frequency = %g, want %g", c+1, got, w)
		}
	}
}

// With no policy the pipeline must run without misses and the thermal
// gradient must develop toward ~9 °C within the 12.5 s warm-up
// (paper Section 5.2 narrative).
func TestWarmupGradientAndQoS(t *testing.T) {
	e := newSDREngine(t, sim.Config{}, thermal.MobileEmbedded(), policy.EnergyBalance{})
	if err := e.Run(12.5); err != nil {
		t.Fatal(err)
	}
	snk := e.Graph().SinkStats()
	if snk.Misses != 0 {
		t.Errorf("misses during warm-up = %d", snk.Misses)
	}
	if snk.Consumed < 500 {
		t.Errorf("consumed %d frames in 12.5 s, want ≈600", snk.Consumed)
	}
	t1, t3 := e.Platform().CoreTemp(0), e.Platform().CoreTemp(2)
	if spread := t1 - t3; spread < 6 || spread > 13 {
		t.Errorf("warm-up spread = %.2f, want ≈9 (6..13)", spread)
	}
	// Utilizations must match Table 2 within tolerance; check through
	// energy/power plausibility instead: core1 hotter than others.
	if !(t1 > e.Platform().CoreTemp(1)) {
		t.Error("core1 not hottest after warm-up")
	}
}

// The headline result: enabling thermal balancing after warm-up
// balances the cores (paper: within ~1 s) without deadline misses at
// the operating threshold of 3 °C.
func TestThermalBalancingBalancesWithoutQoSLoss(t *testing.T) {
	bal := core.New(core.Params{Delta: 3})
	e := newSDREngine(t, sim.Config{PolicyStartS: 12.5, MeasureStartS: 12.5}, thermal.MobileEmbedded(), bal)
	if err := e.Run(42.5); err != nil {
		t.Fatal(err)
	}
	r := e.Summarize()
	if r.DeadlineMisses != 0 {
		t.Errorf("misses at operating threshold = %d, want 0", r.DeadlineMisses)
	}
	if r.Migrations == 0 {
		t.Error("no migrations happened")
	}
	if r.MeanGradient > 5 {
		t.Errorf("balanced mean gradient = %.2f, want < 5 (unbalanced is ≈9)", r.MeanGradient)
	}
	if r.PooledStdDev <= 0 {
		t.Error("pooled stddev not positive")
	}
	// 64 KB per migration (the OS minimum allocation).
	wantBytes := float64(r.Migrations) * 64 * 1024
	if math.Abs(r.MigratedBytes-wantBytes) > 1 {
		t.Errorf("migrated bytes = %g, want %g (64 KB each)", r.MigratedBytes, wantBytes)
	}
}

// Balancing must beat the energy-balanced baseline on the combined
// temperature deviation metric (Figure 7's ordering).
func TestBalancerBeatsEnergyBalanceOnStdDev(t *testing.T) {
	cfg := sim.Config{PolicyStartS: 12.5, MeasureStartS: 12.5}
	eb := newSDREngine(t, cfg, thermal.MobileEmbedded(), policy.EnergyBalance{})
	if err := eb.Run(32.5); err != nil {
		t.Fatal(err)
	}
	tb := newSDREngine(t, cfg, thermal.MobileEmbedded(), core.New(core.Params{Delta: 3}))
	if err := tb.Run(32.5); err != nil {
		t.Fatal(err)
	}
	rEB, rTB := eb.Summarize(), tb.Summarize()
	if rTB.PooledStdDev >= rEB.PooledStdDev {
		t.Errorf("thermal balance pooled std %.3f >= energy balance %.3f", rTB.PooledStdDev, rEB.PooledStdDev)
	}
	if rTB.SpatialStdDev >= rEB.SpatialStdDev {
		t.Errorf("thermal balance spatial std %.3f >= energy balance %.3f", rTB.SpatialStdDev, rEB.SpatialStdDev)
	}
}

// Stop&Go must control the hot core but at a massive QoS cost
// (Figures 8/10's ordering).
func TestStopGoTradesQoSForTemperature(t *testing.T) {
	cfg := sim.Config{PolicyStartS: 12.5, MeasureStartS: 12.5}
	sg := newSDREngine(t, cfg, thermal.MobileEmbedded(), policy.NewStopGo(3))
	if err := sg.Run(32.5); err != nil {
		t.Fatal(err)
	}
	tb := newSDREngine(t, cfg, thermal.MobileEmbedded(), core.New(core.Params{Delta: 3}))
	if err := tb.Run(32.5); err != nil {
		t.Fatal(err)
	}
	rSG, rTB := sg.Summarize(), tb.Summarize()
	if rSG.DeadlineMisses < 100*max64(rTB.DeadlineMisses, 1) {
		t.Errorf("Stop&Go misses %d not dramatically above thermal balance %d",
			rSG.DeadlineMisses, rTB.DeadlineMisses)
	}
	if rSG.Migrations != 0 {
		t.Errorf("Stop&Go migrated %d tasks; it must not migrate", rSG.Migrations)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// The high-performance package must trigger migrations at a higher rate
// than the mobile package at equal threshold (Figure 11).
func TestHighPerfMigratesMoreOften(t *testing.T) {
	cfg := sim.Config{PolicyStartS: 12.5, MeasureStartS: 12.5}
	mob := newSDREngine(t, cfg, thermal.MobileEmbedded(), core.New(core.Params{Delta: 3}))
	if err := mob.Run(42.5); err != nil {
		t.Fatal(err)
	}
	hp := newSDREngine(t, cfg, thermal.HighPerformance(), core.New(core.Params{Delta: 3}))
	if err := hp.Run(42.5); err != nil {
		t.Fatal(err)
	}
	rm, rh := mob.Summarize(), hp.Summarize()
	if rh.MigrationsPerSec <= rm.MigrationsPerSec {
		t.Errorf("high-perf rate %.2f/s <= mobile %.2f/s", rh.MigrationsPerSec, rm.MigrationsPerSec)
	}
}

// The paper narrative: balancing takes hold within about a second of
// enabling the policy (the die-level component equalises quickly; the
// package-level drift completes over the next couple of seconds).
func TestBalanceReachedQuickly(t *testing.T) {
	bal := core.New(core.Params{Delta: 3})
	e := newSDREngine(t, sim.Config{PolicyStartS: 12.5, RecordTrace: true}, thermal.MobileEmbedded(), bal)
	if err := e.Run(17.0); err != nil {
		t.Fatal(err)
	}
	// Spread at policy-on, after ~1.5 s, and after ~4 s.
	var spreadAtOn, spread14, spread165 float64
	for _, s := range e.Recorder().Samples() {
		spread := maxf(s.Temp) - minf(s.Temp)
		if s.Time <= 12.51 {
			spreadAtOn = spread
		}
		if s.Time <= 14.0 {
			spread14 = spread
		}
		if s.Time <= 16.5 {
			spread165 = spread
		}
	}
	if spreadAtOn < 6 {
		t.Fatalf("spread at policy-on = %.2f, warm-up broken", spreadAtOn)
	}
	// Substantial progress within 1.5 s of activation...
	if spread14 > 0.8*spreadAtOn {
		t.Errorf("spread %.2f -> %.2f after 1.5 s; balancing too slow", spreadAtOn, spread14)
	}
	// ...and within the ±3 °C band (spread ≤ ~2·Delta) by 4 s.
	if spread165 > 6.5 {
		t.Errorf("spread %.2f after 4 s, want inside the ±3 band", spread165)
	}
}

func maxf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Determinism: identical configurations produce identical results.
func TestRunsAreDeterministic(t *testing.T) {
	res := make([]sim.Result, 2)
	for i := range res {
		e := newSDREngine(t, sim.Config{PolicyStartS: 12.5, MeasureStartS: 12.5},
			thermal.MobileEmbedded(), core.New(core.Params{Delta: 2}))
		if err := e.Run(22.5); err != nil {
			t.Fatal(err)
		}
		res[i] = e.Summarize()
	}
	if res[0].PooledStdDev != res[1].PooledStdDev ||
		res[0].Migrations != res[1].Migrations ||
		res[0].DeadlineMisses != res[1].DeadlineMisses {
		t.Errorf("non-deterministic results: %+v vs %+v", res[0], res[1])
	}
}

// Overshoot tracking: during balancing the hot core exceeds the upper
// threshold only transiently (the paper reports < 400 ms per episode;
// over the whole run the total must stay bounded).
func TestOvershootBounded(t *testing.T) {
	bal := core.New(core.Params{Delta: 3})
	e := newSDREngine(t, sim.Config{PolicyStartS: 12.5, MeasureStartS: 12.5}, thermal.MobileEmbedded(), bal)
	e.SetOvershootDelta(3)
	if err := e.Run(20.0); err != nil {
		t.Fatal(err)
	}
	r := e.Summarize()
	// 7.5 s of measurement; the hot core must be above mean+3 for only
	// a small fraction (the initial crossing plus re-trigger blips).
	if r.OverThresholdS > 2.0 {
		t.Errorf("time above upper threshold = %.2f s of 7.5 s", r.OverThresholdS)
	}
}

func TestTraceRecorderCapturesRun(t *testing.T) {
	e := newSDREngine(t, sim.Config{PolicyStartS: 0.1, RecordTrace: true},
		thermal.MobileEmbedded(), core.New(core.Params{Delta: 2}))
	if err := e.Run(5.0); err != nil {
		t.Fatal(err)
	}
	rec := e.Recorder()
	if rec == nil {
		t.Fatal("no recorder despite RecordTrace")
	}
	if len(rec.Samples()) < 400 {
		t.Errorf("samples = %d, want ≈500 (10 ms period over 5 s)", len(rec.Samples()))
	}
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(sb.String(), "\n", 2)[0]
	if !strings.Contains(head, "temp1_c") || !strings.Contains(head, "freq3_mhz") {
		t.Errorf("CSV header = %q", head)
	}
	var eb strings.Builder
	if err := rec.WriteEventsCSV(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.String(), "policy-on") {
		t.Error("event log missing policy-on")
	}
}

// Frozen tasks must never execute: total frames processed by a task
// equals frames forwarded downstream even across migrations.
func TestFrameConservationAcrossMigrations(t *testing.T) {
	e := newSDREngine(t, sim.Config{PolicyStartS: 12.5, MeasureStartS: 12.5},
		thermal.MobileEmbedded(), core.New(core.Params{Delta: 2}))
	if err := e.Run(30.0); err != nil {
		t.Fatal(err)
	}
	g := e.Graph()
	lpf, _ := g.TaskIndex("LPF")
	demod, _ := g.TaskIndex("DEMOD")
	sum, _ := g.TaskIndex("SUM")
	// Pipeline monotonicity: upstream stages complete at least as many
	// frames as downstream ones, and the difference is bounded by the
	// total in-flight buffering.
	fL := g.Task(lpf).FramesCompleted
	fD := g.Task(demod).FramesCompleted
	fS := g.Task(sum).FramesCompleted
	if fL < fD || fD < fS {
		t.Errorf("pipeline counts not monotone: LPF %d, DEMOD %d, SUM %d", fL, fD, fS)
	}
	maxBuffer := int64(g.NumQueues() * stream.DefaultQueueCap)
	if fL-fS > maxBuffer {
		t.Errorf("frames lost: LPF %d vs SUM %d exceeds buffering %d", fL, fS, maxBuffer)
	}
	// Consumed + in-queue = produced by SUM.
	snk := g.SinkStats()
	qOut, _ := g.QueueIndex("q:sum-sink")
	if got := snk.Consumed + int64(g.Queue(qOut).Len()); got != fS {
		t.Errorf("sink conservation: consumed+queued = %d, SUM produced %d", got, fS)
	}
}

// Energy accounting sanity: a hotter, faster core consumes more energy;
// total energy is positive and bounded by max power x time.
func TestEnergyAccounting(t *testing.T) {
	e := newSDREngine(t, sim.Config{}, thermal.MobileEmbedded(), policy.EnergyBalance{})
	if err := e.Run(5.0); err != nil {
		t.Fatal(err)
	}
	total := e.Platform().TotalEnergyJ
	if total <= 0 {
		t.Fatal("no energy accounted")
	}
	// 3 cores + caches + memory at absolute max ≈ 2 W for 5 s = 10 J.
	if total > 10 {
		t.Errorf("energy %g J exceeds physical bound", total)
	}
}

// rogue is a policy that emits a malformed action once.
type rogue struct {
	act   policy.Action
	fired bool
}

func (r *rogue) Name() string { return "rogue" }

func (r *rogue) Decide(*policy.Snapshot) []policy.Action {
	if r.fired {
		return nil
	}
	r.fired = true
	return []policy.Action{r.act}
}

// The engine must reject malformed policy actions with an error instead
// of corrupting platform state or panicking.
func TestEngineRejectsMalformedActions(t *testing.T) {
	cases := []struct {
		name string
		act  policy.Action
	}{
		{"migrate unknown task", policy.Migrate{Task: 99, Dst: 1}},
		{"migrate negative task", policy.Migrate{Task: -1, Dst: 1}},
		{"migrate to unknown core", policy.Migrate{Task: 0, Dst: 9}},
		{"migrate to same core", policy.Migrate{Task: 0, Dst: 2}}, // LPF is on core 2
		{"stop unknown core", policy.StopCore{Core: 5}},
		{"start unknown core", policy.StartCore{Core: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newSDREngine(t, sim.Config{}, thermal.MobileEmbedded(), &rogue{act: tc.act})
			if err := e.Run(0.05); err == nil {
				t.Errorf("engine accepted %v", tc.act)
			}
		})
	}
}

// Frozen tasks must not execute: during an in-flight migration the
// migrating task's FramesCompleted stays constant.
func TestFrozenTaskDoesNotRun(t *testing.T) {
	e := newSDREngine(t, sim.Config{PolicyStartS: 12.5}, thermal.MobileEmbedded(),
		core.New(core.Params{Delta: 3}))
	// Run to just past the first migration trigger.
	if err := e.Run(12.6); err != nil {
		t.Fatal(err)
	}
	var ti = -1
	for i := 0; i < e.Graph().NumTasks(); i++ {
		if _, pending := e.Migrations().Pending(i); pending {
			ti = i
			break
		}
	}
	if ti < 0 {
		t.Skip("no migration in flight at the probe instant")
	}
	tk := e.Graph().Task(ti)
	if tk.State != task.Frozen {
		// Still waiting for its checkpoint: run a little further.
		if err := e.Run(0.1); err != nil {
			t.Fatal(err)
		}
	}
	if tk.State == task.Frozen {
		before := tk.FramesCompleted
		if err := e.Run(0.02); err != nil {
			t.Fatal(err)
		}
		if tk.State == task.Frozen && tk.FramesCompleted != before {
			t.Errorf("frozen task %s completed frames", tk.Name)
		}
	}
}
