package sim_test

import (
	"fmt"
	"testing"

	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/thermal"
)

// The incremental calendar must return exactly the horizon a full
// rescan of every core would, at every fast-path group: the partition
// into macro-steps and plain ticks defines the expm accounting bits.
// Checked over every builtin and eight generated specs, under both the
// Euler and the expm scheme, through policy activation.
func TestCalendarHorizonMatchesFullScan(t *testing.T) {
	type namedScenario struct {
		name string
		sc   scenario.Scenario
	}
	var cases []namedScenario
	for _, name := range scenario.Names() {
		sc, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, namedScenario{name, sc})
	}
	for seed := int64(1); seed <= 8; seed++ {
		sc, err := scenario.FromSpec(scenario.Generate(seed))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, namedScenario{fmt.Sprintf("generated-%d", seed), sc})
	}
	// The tight variant runs two-frame queues, which keep producers
	// blocked on full outputs (so a pop's producers must be dirtied as
	// well as a push's consumers), and a 7 ms sensor period, which moves
	// source emissions off the sensor updates that dirty every core.
	variants := []struct {
		name     string
		queueCap int
		sensorS  float64
	}{{"default", 0, 0}, {"tight", 2, 0.007}}
	for _, c := range cases {
		for _, scheme := range []thermal.Scheme{thermal.Euler, thermal.Expm} {
			for _, v := range variants {
				c, scheme, v := c, scheme, v
				t.Run(fmt.Sprintf("%s/%s/%s", c.name, scheme, v.name), func(t *testing.T) {
					checkHorizonRun(t, c.sc, scheme, v.queueCap, v.sensorS)
				})
			}
		}
	}
}

func checkHorizonRun(t *testing.T, sc scenario.Scenario, scheme thermal.Scheme, queueCap int, sensorS float64) {
	checked := sim.CheckHorizons(t)
	inst, err := sc.Instantiate(scenario.Options{QueueCap: queueCap})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.New(sc.DefaultPolicy, policy.Args{Delta: sc.DefaultDelta})
	if err != nil {
		t.Fatal(err)
	}
	// Under expm what matters here is the engine's span-exact
	// accounting, not the integrator: forcing every span onto the
	// scheme's bit-exact Euler fallback keeps a 64-core dense
	// propagator build (tens of seconds under -race) out of the test.
	th := thermal.Config{Scheme: scheme}
	if scheme == thermal.Expm {
		th.ExpmMinSubsteps = 1 << 30
	}
	e, err := sim.New(sim.Config{
		PolicyStartS: 0.3, MeasureStartS: 0.3,
		SensorPeriodS: sensorS,
		Thermal:       th,
		Modulate:      inst.Modulate,
	}, inst.Platform, inst.Graph, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1.2); err != nil {
		t.Fatal(err)
	}
	if checked() == 0 {
		t.Error("no fast-path group was checked")
	}
}

// The engine profile accounts for every tick and every plain-tick core
// step, counts the same frame boundaries whichever loop ran them, and —
// the point of the calendar — on manycore-256 sends well under a tenth
// of the core steps through runCore, and rescans well under a tenth of
// the cores a full scan per group would.
func TestProfileAccounting(t *testing.T) {
	cfg := sim.Config{PolicyStartS: 1, MeasureStartS: 1}
	fast := buildScenarioEngine(t, "manycore-256", cfg)
	cfg.NoFastPath = true
	slow := buildScenarioEngine(t, "manycore-256", cfg)
	for _, e := range []*sim.Engine{fast, slow} {
		if err := e.Run(3); err != nil {
			t.Fatal(err)
		}
	}
	n := int64(fast.Platform().NumCores())
	pf, ps := fast.Profile(), slow.Profile()
	for _, c := range []struct {
		name  string
		p     sim.Profile
		ticks int64
	}{{"fast", pf, fast.Ticks()}, {"no-fastpath", ps, slow.Ticks()}} {
		if got := c.p.PlainTicks + c.p.MacroTicks; got != c.ticks {
			t.Errorf("%s: plain %d + macro %d ticks = %d, engine advanced %d", c.name, c.p.PlainTicks, c.p.MacroTicks, got, c.ticks)
		}
		if got := c.p.QuietCores + c.p.FullCores; got != c.p.PlainTicks*n {
			t.Errorf("%s: %d quiet + %d full core steps, want %d plain ticks x %d cores", c.name, c.p.QuietCores, c.p.FullCores, c.p.PlainTicks, n)
		}
	}
	if pf.FrameBegins != ps.FrameBegins || pf.FrameFinishes != ps.FrameFinishes {
		t.Errorf("frame boundaries differ: fast %d/%d, tick-stepped %d/%d",
			pf.FrameBegins, pf.FrameFinishes, ps.FrameBegins, ps.FrameFinishes)
	}
	if ps.Scans != 0 || ps.QuietCores != 0 || ps.MacroSteps != 0 {
		t.Errorf("no-fastpath profile used the fast path: %+v", ps)
	}
	if pf.FullCores*10 > ps.FullCores {
		t.Errorf("%d full core steps, want under a tenth of the tick loop's %d", pf.FullCores, ps.FullCores)
	}
	if pf.Rescans*10 > pf.Scans*n {
		t.Errorf("%d core rescans over %d scans, want under a tenth of a full scan's %d", pf.Rescans, pf.Scans, pf.Scans*n)
	}
}
