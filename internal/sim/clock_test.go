package sim_test

// Black-box tests of the engine's integer-tick clock and event-horizon
// fast path: split-run determinism across every registered scenario,
// drift-free long-run time, and bit-for-bit equality of the fast path
// against plain tick stepping. These live in package sim_test so they
// can use the scenario registry (which itself depends on sim).

import (
	"fmt"
	"math"
	"testing"

	"thermbal/internal/migrate"
	"thermbal/internal/mpsoc"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/stream"
	"thermbal/internal/task"
	"thermbal/internal/thermal"
)

// fingerprint captures everything a run can observably produce; two
// fingerprints compare with == for bit-for-bit equality.
type fingerprint struct {
	now       float64
	ticks     int64
	temps     string // per-core temperatures, %x-formatted bits
	taskState string // per-task progress/frames/placement bits
	source    stream.Source
	sink      stream.Sink
	completed int
	bytes     float64
	freeze    float64
	misses    int64
	energy    float64
	switches  int
	migrLog   string
}

func snapshotRun(e *sim.Engine) fingerprint {
	fp := fingerprint{
		now:    e.Now(),
		ticks:  e.Ticks(),
		source: e.Graph().SourceStats(),
		sink:   e.Graph().SinkStats(),
	}
	for c := 0; c < e.Platform().NumCores(); c++ {
		fp.temps += fmt.Sprintf("%x,%x;", e.Platform().CoreTemp(c), e.Platform().Frequency(c))
	}
	for _, t := range e.Graph().Tasks() {
		fp.taskState += fmt.Sprintf("%s@%d:%x/%x/%d/%d;", t.Name, t.Core, t.Progress, t.BusyCycles, t.FramesCompleted, t.Migrations)
	}
	st := e.Migrations().Stats()
	fp.completed = st.Completed
	fp.bytes = st.BytesMoved
	fp.freeze = st.FreezeTime
	fp.misses = fp.sink.Misses
	fp.energy = e.Platform().TotalEnergyJ
	fp.switches = e.Platform().Gov.Switches()
	if rec := e.Recorder(); rec != nil {
		for _, ev := range rec.Events() {
			fp.migrLog += fmt.Sprintf("%x:%s:%s;", ev.Time, ev.Kind, ev.Text)
		}
	}
	return fp
}

// buildScenarioEngine instantiates a registered scenario under its
// default policy with the engine knobs given.
func buildScenarioEngine(t *testing.T, name string, cfg sim.Config) *sim.Engine {
	t.Helper()
	sc, err := scenario.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sc.Instantiate(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.New(sc.DefaultPolicy, policy.Args{Delta: sc.DefaultDelta})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Modulate = inst.Modulate
	e, err := sim.New(cfg, inst.Platform, inst.Graph, pol)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Split-run determinism: for every registered scenario, one Run(total)
// must be bit-for-bit identical to the same total split into 10 ms
// chunks — same temperatures, misses, migration log, task state.
func TestSplitRunDeterministicAcrossScenarios(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			const total, chunk = 2.5, 0.01
			const chunks = 250
			cfg := sim.Config{PolicyStartS: 0.5, MeasureStartS: 0.5, RecordTrace: true}
			one := buildScenarioEngine(t, name, cfg)
			if err := one.Run(total); err != nil {
				t.Fatal(err)
			}
			split := buildScenarioEngine(t, name, cfg)
			for i := 0; i < chunks; i++ {
				if err := split.Run(chunk); err != nil {
					t.Fatal(err)
				}
			}
			a, b := snapshotRun(one), snapshotRun(split)
			if a != b {
				t.Errorf("split run diverged:\n one:   %+v\n split: %+v", a, b)
			}
		})
	}
}

// The issue's headline case: Run(60) equals 6000 x Run(0.01) on the
// paper's benchmark, through warm-up, policy activation and migrations.
func TestSplitRunSixtySeconds(t *testing.T) {
	if testing.Short() {
		t.Skip("60 s simulation")
	}
	cfg := sim.Config{PolicyStartS: 12.5, MeasureStartS: 12.5, RecordTrace: true}
	one := buildScenarioEngine(t, scenario.DefaultName, cfg)
	if err := one.Run(60); err != nil {
		t.Fatal(err)
	}
	split := buildScenarioEngine(t, scenario.DefaultName, cfg)
	for i := 0; i < 6000; i++ {
		if err := split.Run(0.01); err != nil {
			t.Fatal(err)
		}
	}
	a, b := snapshotRun(one), snapshotRun(split)
	if a != b {
		t.Errorf("Run(60) != 6000 x Run(0.01):\n one:   %+v\n split: %+v", a, b)
	}
	if a.completed == 0 {
		t.Error("no migrations over 60 s; the comparison exercised nothing")
	}
}

// Fast path on vs off must be bit-for-bit identical on the paper
// scenarios (and the modulated one), including migrations and traces.
func TestFastPathBitForBit(t *testing.T) {
	cases := []struct {
		scenario string
		cfg      sim.Config
		dur      float64
	}{
		{"sdr-radio", sim.Config{PolicyStartS: 12.5, MeasureStartS: 12.5, RecordTrace: true}, 17},
		{"video-decoder", sim.Config{PolicyStartS: 5, MeasureStartS: 5, RecordTrace: true}, 12},
		{"bursty-sdr", sim.Config{PolicyStartS: 1, MeasureStartS: 1, RecordTrace: true}, 9},
		{"manycore-8", sim.Config{PolicyStartS: 1, MeasureStartS: 1, RecordTrace: true}, 4},
		// The calendar's quiet-core path carries most plain ticks here.
		{"manycore-64", sim.Config{PolicyStartS: 1, MeasureStartS: 1, RecordTrace: true}, 3},
		{"manycore-256", sim.Config{PolicyStartS: 1, MeasureStartS: 1, RecordTrace: true}, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scenario, func(t *testing.T) {
			fast := buildScenarioEngine(t, tc.scenario, tc.cfg)
			slowCfg := tc.cfg
			slowCfg.NoFastPath = true
			slow := buildScenarioEngine(t, tc.scenario, slowCfg)
			if err := fast.Run(tc.dur); err != nil {
				t.Fatal(err)
			}
			if err := slow.Run(tc.dur); err != nil {
				t.Fatal(err)
			}
			a, b := snapshotRun(fast), snapshotRun(slow)
			if a != b {
				t.Errorf("fast path diverged from tick stepping:\n fast: %+v\n slow: %+v", a, b)
			}
			ra, rb := fast.Summarize(), slow.Summarize()
			if ra != rb {
				t.Errorf("summaries differ:\n fast: %+v\n slow: %+v", ra, rb)
			}
		})
	}
}

// The recreation mechanism exercises the Restoring phase transition,
// which the event horizon must respect to the tick.
func TestFastPathBitForBitRecreation(t *testing.T) {
	cfg := sim.Config{PolicyStartS: 12.5, MeasureStartS: 12.5, Mechanism: migrate.Recreation, RecordTrace: true}
	fast := buildScenarioEngine(t, scenario.DefaultName, cfg)
	slowCfg := cfg
	slowCfg.NoFastPath = true
	slow := buildScenarioEngine(t, scenario.DefaultName, slowCfg)
	for _, e := range []*sim.Engine{fast, slow} {
		if err := e.Run(16); err != nil {
			t.Fatal(err)
		}
	}
	a, b := snapshotRun(fast), snapshotRun(slow)
	if a != b {
		t.Errorf("fast path diverged under task-recreation:\n fast: %+v\n slow: %+v", a, b)
	}
	if a.completed == 0 {
		t.Error("no recreation migrations; the Restoring phase was not exercised")
	}
}

// Re-entry alignment: two half-period runs must fire the sensor update
// at the same absolute tick as one full-period run (the seed restarted
// its step counter every Run call, desynchronising the cadence).
func TestRunReentrySensorAlignment(t *testing.T) {
	build := func() *sim.Engine {
		return newEngine(t, sdrInstance(t, scenario.Options{}).Graph, sim.Config{RecordTrace: true})
	}
	one := build()
	if err := one.Run(0.010); err != nil {
		t.Fatal(err)
	}
	split := build()
	if err := split.Run(0.005); err != nil {
		t.Fatal(err)
	}
	if err := split.Run(0.005); err != nil {
		t.Fatal(err)
	}
	sa, sb := one.Recorder().Samples(), split.Recorder().Samples()
	if len(sa) != 1 || len(sb) != 1 {
		t.Fatalf("sample counts: one=%d split=%d, want 1 and 1", len(sa), len(sb))
	}
	if sa[0].Time != sb[0].Time {
		t.Errorf("sensor times diverged: %v vs %v", sa[0].Time, sb[0].Time)
	}
	if a, b := snapshotRun(one), snapshotRun(split); a != b {
		t.Errorf("re-entry diverged:\n one:   %+v\n split: %+v", a, b)
	}
}

// Drift regression: after >= 10^7 ticks the clock must still be exactly
// steps*tick — the seed's accumulating float clock had drifted by then.
func TestClockDriftFreeTenMillionTicks(t *testing.T) {
	e := newEngine(t, sdrInstance(t, scenario.Options{}).Graph, sim.Config{SensorPeriodS: 0.1})
	const steps = 10_000_000
	const tick = 100e-6
	if err := e.Run(steps * tick); err != nil {
		t.Fatal(err)
	}
	if e.Ticks() != steps {
		t.Fatalf("ticks = %d, want %d", e.Ticks(), steps)
	}
	if want := float64(steps) * tick; e.Now() != want {
		t.Errorf("Now() = %x, want exactly %x (steps*tick)", e.Now(), want)
	}
	// The accumulated clock would be off by far more than one ulp here;
	// the derived clock is exact by construction.
	var acc float64
	for i := 0; i < 1000; i++ {
		acc += tick
	}
	if acc == 1000*tick {
		t.Log("note: accumulation happened to be exact over 1000 steps on this platform")
	}
}

// newEngine assembles an engine over the default 3-core platform with a
// quiet policy (no migrations), for clock-focused tests.
func newEngine(t *testing.T, g *stream.Graph, cfg sim.Config) *sim.Engine {
	t.Helper()
	plat, err := mpsoc.New(mpsoc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(cfg, plat, g, policy.EnergyBalance{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The fast path must also hold when the policy stops and restarts cores
// (Stop&Go drives SetPowered through the engine's accounting flushes).
func TestFastPathBitForBitStopGo(t *testing.T) {
	build := func(noFast bool) *sim.Engine {
		sc, err := scenario.Lookup(scenario.DefaultName)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := sc.Instantiate(scenario.Options{Package: thermal.HighPerformance()})
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{PolicyStartS: 2, MeasureStartS: 2, RecordTrace: true, NoFastPath: noFast}
		e, err := sim.New(cfg, inst.Platform, inst.Graph, policy.NewStopGo(3))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	fast, slow := build(false), build(true)
	for _, e := range []*sim.Engine{fast, slow} {
		if err := e.Run(8); err != nil {
			t.Fatal(err)
		}
	}
	a, b := snapshotRun(fast), snapshotRun(slow)
	if a != b {
		t.Errorf("fast path diverged under Stop&Go:\n fast: %+v\n slow: %+v", a, b)
	}
}

// Direct check that a long thermal-balance run matches the documented
// invariant Now() == Ticks()*TickS at every sensor boundary, and that
// migrated state stays consistent (guards the horizon's checkpoint
// bound).
func TestFastPathInvariantsUnderBalancing(t *testing.T) {
	e := buildScenarioEngine(t, scenario.DefaultName, sim.Config{PolicyStartS: 12.5, MeasureStartS: 12.5})
	for i := 0; i < 200; i++ {
		if err := e.Run(0.1); err != nil {
			t.Fatal(err)
		}
		if want := float64(e.Ticks()) * 100e-6; e.Now() != want {
			t.Fatalf("after %d chunks: Now() %x != Ticks()*tick %x", i+1, e.Now(), want)
		}
	}
	r := e.Summarize()
	if r.Migrations == 0 {
		t.Error("no migrations; balancing not exercised")
	}
	if math.Abs(r.MigratedBytes-float64(r.Migrations)*float64(task.DefaultStateBytes)) > 1 {
		t.Errorf("migrated bytes %g inconsistent with %d migrations", r.MigratedBytes, r.Migrations)
	}
}
