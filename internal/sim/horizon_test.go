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
// rescan of every core would, at every fast-path group: a longer one
// would jump an event, a shorter one would plain-tick what could be
// jumped. Checked over every builtin, eight generated specs and an
// off-grid frame period, through policy activation, under both thermal
// schemes: the engine does not
// branch on the scheme, but expm's temperatures drive other DVFS
// levels and policy actions, so its runs take the calendar through
// other states.
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
	// A 7 ms frame period puts source emissions and sink deadlines
	// between the 10 ms sensor updates, which dirty every core, so a
	// queue change there must dirty its cores itself.
	sdr, err := scenario.Lookup(scenario.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	spec := sdr.Spec
	spec.Graph.FramePeriodS, spec.Graph.Source.PeriodS, spec.Graph.Sink.PeriodS = 0.007, 0.007, 0.007
	offGrid, err := scenario.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, namedScenario{"sdr-radio-7ms", offGrid})
	// The tight variant runs two-frame queues, which keep producers
	// blocked on full outputs, so a pop's producers must be dirtied as
	// well as a push's consumers.
	variants := []struct {
		name     string
		queueCap int
	}{{"default", 0}, {"tight", 2}}
	for _, c := range cases {
		for _, scheme := range []thermal.Scheme{thermal.Euler, thermal.Expm} {
			for _, v := range variants {
				c, scheme, v := c, scheme, v
				t.Run(fmt.Sprintf("%s/%s/%s", c.name, scheme, v.name), func(t *testing.T) {
					checkHorizonRun(t, c.sc, scheme, v.queueCap)
				})
			}
		}
	}
}

func checkHorizonRun(t *testing.T, sc scenario.Scenario, scheme thermal.Scheme, queueCap int) {
	checked := sim.CheckHorizons(t)
	inst, err := sc.Instantiate(scenario.Options{QueueCap: queueCap})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.New(sc.DefaultPolicy, policy.Args{Delta: sc.DefaultDelta})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{
		PolicyStartS: 0.3, MeasureStartS: 0.3,
		Thermal:  scheme,
		Modulate: inst.Modulate,
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
