package sim_test

// Checkpoint/Restore and RunTo: a restored engine continues exactly
// like the engine its checkpoint was taken from, at any tick, mid
// migration and mid frame; split runs in absolute ticks are exact.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"thermbal/internal/migrate"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/thermal"
)

// scriptedPolicy decides from the snapshot alone, so a fresh instance
// continues a restored run exactly. Every 25 sensor periods it asks one
// task (rotating with time) to move to the next core; in the middle
// third of every 150 periods it keeps the last core stopped.
type scriptedPolicy struct{}

func (scriptedPolicy) Name() string { return "scripted" }

func (scriptedPolicy) Decide(s *policy.Snapshot) []policy.Action {
	var acts []policy.Action
	p := int(math.Round(s.Time / 0.01))
	n := s.NumCores()
	if p%25 == 0 && s.MigrationsPending == 0 {
		tv := s.Tasks[(p/25)%len(s.Tasks)]
		if !tv.Migrating {
			acts = append(acts, policy.Migrate{Task: tv.Index, Dst: (tv.Core + 1) % n})
		}
	}
	last := n - 1
	switch stop := (p/50)%3 == 1; {
	case stop && s.Powered[last]:
		acts = append(acts, policy.StopCore{Core: last})
	case !stop && !s.Powered[last]:
		acts = append(acts, policy.StartCore{Core: last})
	}
	return acts
}

// buildScripted instantiates a registered scenario under scriptedPolicy.
func buildScripted(t *testing.T, name string, cfg sim.Config) *sim.Engine {
	t.Helper()
	sc, err := scenario.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sc.Instantiate(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Modulate = inst.Modulate
	e, err := sim.New(cfg, inst.Platform, inst.Graph, scriptedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func runTo(t *testing.T, e *sim.Engine, tick int64) {
	t.Helper()
	if err := e.RunTo(tick); err != nil {
		t.Fatal(err)
	}
}

func checkpoint(t *testing.T, e *sim.Engine) *sim.Checkpoint {
	t.Helper()
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// traceCSV renders an engine's timeline and event log.
func traceCSV(t *testing.T, e *sim.Engine) string {
	t.Helper()
	var b bytes.Buffer
	if err := e.Recorder().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if err := e.Recorder().WriteEventsCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// requireSameRun fails unless two engines ended in the same observable
// state: fingerprint, summary and Profile.
func requireSameRun(t *testing.T, what string, a, b *sim.Engine) {
	t.Helper()
	if fa, fb := snapshotRun(a), snapshotRun(b); fa != fb {
		t.Fatalf("%s: state diverged:\n want: %+v\n got:  %+v", what, fa, fb)
	}
	if ra, rb := a.Summarize(), b.Summarize(); ra != rb {
		t.Fatalf("%s: summaries differ:\n want: %+v\n got:  %+v", what, ra, rb)
	}
	if pa, pb := a.Profile(), b.Profile(); pa != pb {
		t.Fatalf("%s: profiles differ:\n want: %+v\n got:  %+v", what, pa, pb)
	}
}

// A checkpoint taken at any tick — mid frame, mid sensor window, with
// migrations waiting, transferring or restoring and a core stopped —
// restores into a fresh engine that continues bit-for-bit, Profile
// included; taking it does not perturb the original.
func TestCheckpointRestoreMidRun(t *testing.T) {
	const end = 30_000
	for _, mech := range []migrate.Mechanism{migrate.Replication, migrate.Recreation} {
		for _, noFast := range []bool{false, true} {
			cfg := sim.Config{PolicyStartS: 0.3, MeasureStartS: 0.2, Mechanism: mech, NoFastPath: noFast}
			t.Run(mech.String()+map[bool]string{false: "/fast", true: "/ticks"}[noFast], func(t *testing.T) {
				ref := buildScripted(t, "sdr-radio", cfg)
				runTo(t, ref, end)
				if ref.Migrations().Stats().Completed == 0 {
					t.Fatal("no migrations; the scripted policy exercised nothing")
				}
				pending := 0
				for _, at := range []int64{1234, 5000, 12_345, 20_001, 27_777} {
					orig := buildScripted(t, "sdr-radio", cfg)
					runTo(t, orig, at)
					pending += orig.Migrations().NumPending()
					cp := checkpoint(t, orig)
					runTo(t, orig, end)
					if fa, fb := snapshotRun(ref), snapshotRun(orig); fa != fb {
						t.Fatalf("checkpoint at %d perturbed the run:\n want: %+v\n got:  %+v", at, fa, fb)
					}
					// Two engines from one checkpoint: the first run must
					// leave nothing behind in cp for the second to see.
					for i := 0; i < 2; i++ {
						rest := buildScripted(t, "sdr-radio", cfg)
						if err := rest.Restore(cp); err != nil {
							t.Fatal(err)
						}
						if rest.Ticks() != at {
							t.Fatalf("restored engine at tick %d, want %d", rest.Ticks(), at)
						}
						runTo(t, rest, end)
						requireSameRun(t, "restored run", orig, rest)
					}
				}
				if pending == 0 {
					t.Error("no checkpoint caught a migration in flight")
				}
			})
		}
	}
}

// The bursty scenario's modulator keeps no state of its own: an engine
// restored mid-phase and across a phase flip continues exactly.
func TestCheckpointRestoreModulated(t *testing.T) {
	cfg := sim.Config{PolicyStartS: 4.5, MeasureStartS: 4.5}
	orig := buildScenarioEngine(t, "bursty-sdr", cfg)
	runTo(t, orig, orig.WarmupEnd())
	cp := checkpoint(t, orig)
	runTo(t, orig, 90_000)
	rest := buildScenarioEngine(t, "bursty-sdr", cfg)
	if err := rest.Restore(cp); err != nil {
		t.Fatal(err)
	}
	runTo(t, rest, 90_000)
	requireSameRun(t, "restored bursty-sdr", orig, rest)
}

// Restore refuses a checkpoint of another shape, and a tracing engine
// neither takes nor restores one.
func TestRestoreMismatch(t *testing.T) {
	traced := buildScenarioEngine(t, "sdr-radio", sim.Config{RecordTrace: true})
	runTo(t, traced, 500)
	if _, err := traced.Checkpoint(); err == nil {
		t.Error("a tracing engine took a checkpoint")
	}
	src := buildScenarioEngine(t, "sdr-radio", sim.Config{})
	runTo(t, src, 500)
	cp := checkpoint(t, src)
	for name, cfg := range map[string]sim.Config{
		"manycore-8": {},
		"sdr-radio":  {RecordTrace: true},
	} {
		if err := buildScenarioEngine(t, name, cfg).Restore(cp); err == nil {
			t.Errorf("restoring sdr-radio onto %s %+v succeeded", name, cfg)
		}
	}
}

// Run rounds each call's duration to ticks on its own, so split runs at
// non-tick-aligned durations drift from one long run; RunTo splits in
// absolute ticks and matches it exactly.
func TestRunToSplitsExactly(t *testing.T) {
	cfg := sim.Config{PolicyStartS: 0.5, MeasureStartS: 0.5, RecordTrace: true}
	rounded := buildScenarioEngine(t, "sdr-radio", cfg)
	for _, d := range []float64{1.00003, 2.00003} {
		if err := rounded.Run(d); err != nil {
			t.Fatal(err)
		}
	}
	one := buildScenarioEngine(t, "sdr-radio", cfg)
	if err := one.Run(3.00006); err != nil {
		t.Fatal(err)
	}
	if rounded.Ticks() != 30_000 || one.Ticks() != 30_001 {
		t.Fatalf("Run split ended at tick %d, one Run at %d; want 30000 and 30001", rounded.Ticks(), one.Ticks())
	}
	split := buildScenarioEngine(t, "sdr-radio", cfg)
	runTo(t, split, split.TickAt(1.00003))
	runTo(t, split, split.TickAt(1.00003+2.00003))
	if fa, fb := snapshotRun(one), snapshotRun(split); fa != fb {
		t.Fatalf("RunTo split diverged from one Run:\n one:   %+v\n split: %+v", fa, fb)
	}
	if traceCSV(t, one) != traceCSV(t, split) {
		t.Fatal("RunTo split trace differs from one Run")
	}
}

// countingPolicy counts its decisions.
type countingPolicy struct{ calls *int }

func (countingPolicy) Name() string { return "counting" }

func (p countingPolicy) Decide(*policy.Snapshot) []policy.Action {
	*p.calls++
	return nil
}

// WarmupEnd is the last sensor boundary before the policy's first
// decision and the first metric sample.
func TestWarmupEnd(t *testing.T) {
	for _, tc := range []struct {
		policyS, measureS float64
		want              int64
	}{
		{12.5, 12.5, 124_900},
		{0.3, 0.3, 2900},
		{1.00003, 1.00003, 10_000},
		{1.00003, 0.5, 4900},
		{0.005, 0.005, 0},
		{0, 0, 0},
	} {
		calls := 0
		sc, err := scenario.Lookup("sdr-radio")
		if err != nil {
			t.Fatal(err)
		}
		inst, err := sc.Instantiate(scenario.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(sim.Config{PolicyStartS: tc.policyS, MeasureStartS: tc.measureS}, inst.Platform, inst.Graph, countingPolicy{&calls})
		if err != nil {
			t.Fatal(err)
		}
		got := e.WarmupEnd()
		if got != tc.want {
			t.Errorf("WarmupEnd(policy %g, measure %g) = %d, want %d", tc.policyS, tc.measureS, got, tc.want)
			continue
		}
		runTo(t, e, got)
		if calls != 0 {
			t.Errorf("policy %g: %d decisions before WarmupEnd", tc.policyS, calls)
		}
		runTo(t, e, got+100)
		if tc.policyS <= tc.measureS && calls != 1 {
			t.Errorf("policy %g: %d decisions one period after WarmupEnd, want 1", tc.policyS, calls)
		}
	}
}

// A clean core owes the allocations of the ticks it was not visited on
// and catches up when touched, so a run split between sensor updates
// must end every RunTo with every core caught up, and a checkpoint taken
// there must hold them. Runs split every 37 ticks (never on a sensor
// boundary but every 37th period) under scriptedPolicy, which migrates
// tasks and stops a core, and checkpointed mid-period continue
// exactly like one RunTo, like a restored copy of themselves (Profile
// and checkpoint bytes included) and like tick stepping at every split,
// under Euler and expm.
func TestRunToSplitMidPeriodCatchUp(t *testing.T) {
	type namedScenario struct {
		name string
		sc   scenario.Scenario
	}
	cases := []namedScenario{{"manycore-256", lookup(t, "manycore-256")}}
	for seed := int64(1); seed <= 4; seed++ {
		sc, err := scenario.FromSpec(scenario.Generate(seed))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, namedScenario{fmt.Sprintf("generated-%d", seed), sc})
	}
	const split, end = 37, 6000
	for _, c := range cases {
		for _, scheme := range []thermal.Scheme{thermal.Euler, thermal.Expm} {
			t.Run(fmt.Sprintf("%s/%s", c.name, scheme), func(t *testing.T) {
				build := func(noFast bool) *sim.Engine {
					inst, err := c.sc.Instantiate(scenario.Options{})
					if err != nil {
						t.Fatal(err)
					}
					e, err := sim.New(sim.Config{PolicyStartS: 0.1, MeasureStartS: 0.1,
						Thermal: scheme, Modulate: inst.Modulate, NoFastPath: noFast},
						inst.Platform, inst.Graph, scriptedPolicy{})
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				one := build(false)
				runTo(t, one, end)
				ticked := build(true)
				cut, rest := build(false), (*sim.Engine)(nil)
				for at := int64(split); ; at += split {
					at = min(at, end)
					runTo(t, cut, at)
					if rest != nil {
						runTo(t, rest, at)
					}
					runTo(t, ticked, at)
					if fa, fb := snapshotRun(ticked), snapshotRun(cut); fa != fb {
						t.Fatalf("tick %d: split run diverged from tick stepping:\n want: %+v\n got:  %+v", at, fa, fb)
					}
					if rest == nil && at >= end/2 {
						cp := checkpoint(t, cut)
						rest = build(false)
						if err := rest.Restore(cp); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(checkpoint(t, rest).Data(), cp.Data()) {
							t.Fatalf("tick %d: restored engine checkpoints other bytes", at)
						}
					}
					if at == end {
						break
					}
				}
				if cut.Migrations().Stats().Completed == 0 {
					t.Fatal("no migrations; the scripted policy exercised nothing")
				}
				requireSameRun(t, "restored mid-period", cut, rest)
				if !bytes.Equal(checkpoint(t, cut).Data(), checkpoint(t, rest).Data()) {
					t.Error("split and restored runs end in other checkpoint bytes")
				}
				for _, e := range []*sim.Engine{one, ticked} {
					if fa, fb := snapshotRun(e), snapshotRun(cut); fa != fb {
						t.Errorf("split run diverged:\n want: %+v\n got:  %+v", fa, fb)
					}
					if ra, rb := e.Summarize(), cut.Summarize(); ra != rb {
						t.Errorf("summaries differ:\n want: %+v\n got:  %+v", ra, rb)
					}
				}
				n := int64(cut.Platform().NumCores())
				for _, p := range []sim.Profile{one.Profile(), cut.Profile()} {
					if p.PlainTicks+p.MacroTicks != end || p.QuietCores+p.FullCores != p.PlainTicks*n {
						t.Errorf("profile does not account for %d ticks on %d cores: %+v", end, n, p)
					}
				}
			})
		}
	}
}

// The first measuring and the first policy update are derived from the
// clock, not stored: each is the first sensor update at or after its
// start, whether the start falls on a boundary, between two, before
// the first or at 0, and whether the run is split between updates or
// restored from a checkpoint taken before either start.
func TestFirstUpdateAtOrAfterStart(t *testing.T) {
	const tick, every = 100e-6, 100 // the default tick and sensor period
	firstTick := func(start float64) int64 {
		k := int64(every)
		for float64(k)*tick < start {
			k += every
		}
		return k
	}
	for _, start := range []float64{0, 0.005, 0.3, 1.00003} {
		for _, restored := range []bool{false, true} {
			cfg := sim.Config{PolicyStartS: start, MeasureStartS: start + 0.25}
			e := buildScripted(t, "sdr-radio", cfg)
			if restored {
				src := buildScripted(t, "sdr-radio", cfg)
				runTo(t, src, src.WarmupEnd())
				if err := e.Restore(checkpoint(t, src)); err != nil {
					t.Fatal(err)
				}
			}
			cfg.RecordTrace = true
			traced := buildScripted(t, "sdr-radio", cfg)
			const end = 20_000
			for tk := int64(37); tk < end; tk += 37 {
				runTo(t, e, tk)
				runTo(t, traced, tk)
			}
			runTo(t, e, end)
			runTo(t, traced, end)

			var on []float64
			for _, ev := range traced.Recorder().Events() {
				if ev.Kind == "policy-on" {
					on = append(on, ev.Time)
				}
			}
			if want := float64(firstTick(start)) * tick; len(on) != 1 || on[0] != want {
				t.Errorf("start %g: policy-on at %v, want once at %g", start, on, want)
			}
			want := float64(end)*tick - float64(firstTick(start+0.25))*tick
			if got := e.Summarize().MeasuredS; got != want {
				t.Errorf("start %g (restored %v): measured %g s, want %g", start, restored, got, want)
			}
			if got := traced.Summarize(); got != e.Summarize() {
				t.Errorf("start %g (restored %v): traced and untraced summaries differ", start, restored)
			}
		}
	}
}
