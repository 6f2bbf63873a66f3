package experiment

import (
	"context"
	"math"
	"strings"
	"testing"

	"thermbal/internal/scenario"
	"thermbal/internal/sim"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	want := map[string]float64{
		"RISC32-streaming (Conf1)": 0.5,
		"RISC32-ARM11 (Conf2)":     0.27,
		"DCache 8kB/2way":          0.043,
		"ICache 8kB/DM":            0.011,
		"Memory 32kB":              0.015,
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if w, ok := want[r.Component]; !ok || math.Abs(r.MaxPowerW-w) > 1e-12 {
			t.Errorf("%s = %g, want %g", r.Component, r.MaxPowerW, want[r.Component])
		}
	}
	if !strings.Contains(FormatTable1(), "RISC32-streaming") {
		t.Error("FormatTable1 missing component")
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Table 2, within rounding of the FSE conversion.
	want := []Table2Row{
		{Core: 1, FreqMHz: 533, Task: "BPF1", LoadPct: 36.7},
		{Core: 1, FreqMHz: 533, Task: "DEMOD", LoadPct: 28.3},
		{Core: 2, FreqMHz: 266, Task: "BPF2", LoadPct: 60.9},
		{Core: 2, FreqMHz: 266, Task: "SUM", LoadPct: 6.2},
		{Core: 3, FreqMHz: 266, Task: "BPF3", LoadPct: 60.9},
		{Core: 3, FreqMHz: 266, Task: "LPF", LoadPct: 18.8},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		g := rows[i]
		if g.Core != w.Core || g.Task != w.Task || g.FreqMHz != w.FreqMHz {
			t.Errorf("row %d = %+v, want %+v", i, g, w)
		}
		if math.Abs(g.LoadPct-w.LoadPct) > 0.2 {
			t.Errorf("%s load = %.1f%%, want %.1f%%", w.Task, g.LoadPct, w.LoadPct)
		}
	}
	out, err := FormatTable2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Core 1 (533 MHz)") || !strings.Contains(out, "Core 3 (266 MHz)") {
		t.Errorf("FormatTable2:\n%s", out)
	}
}

func TestFig2Shape(t *testing.T) {
	rows, err := Fig2(context.Background(), Options{}, []int{16, 64, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// Recreation costs more at every size (the Figure 2 offset).
		if r.Recreation <= r.Replication {
			t.Errorf("size %d: recreation %.0f <= replication %.0f", r.TaskSizeKB, r.Recreation, r.Replication)
		}
		// Both monotone increasing in size.
		if i > 0 {
			if r.Replication <= rows[i-1].Replication || r.Recreation <= rows[i-1].Recreation {
				t.Errorf("cost not increasing at size %d", r.TaskSizeKB)
			}
		}
	}
	// Recreation has the steeper slope (bus contention from the code
	// reload, paper Section 3.2).
	slopeRepl := (rows[2].Replication - rows[0].Replication) / (256 - 16)
	slopeRecr := (rows[2].Recreation - rows[0].Recreation) / (256 - 16)
	if slopeRecr <= slopeRepl {
		t.Errorf("recreation slope %.0f <= replication slope %.0f", slopeRecr, slopeRepl)
	}
	if !strings.Contains(FormatFig2(rows), "task-replication") {
		t.Error("FormatFig2 missing header")
	}
}

// Short-window smoke version of the sweeps: shapes must hold even with
// a 10 s measurement (full windows run in the benchmarks / cmd).
func shortSweep(t *testing.T, pkg PackageSel) []SweepPoint {
	t.Helper()
	var out []SweepPoint
	deltas := []float64{2, 4}
	ebRes, _, err := Run(RunConfig{PolicyName: energyBalance, Package: pkg, MeasureS: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		out = append(out, SweepPoint{Policy: energyBalance, Delta: d, Result: ebRes})
	}
	for _, pol := range []string{stopGo, thermalBalance} {
		for _, d := range deltas {
			r, _, err := Run(RunConfig{PolicyName: pol, Delta: d, Package: pkg, MeasureS: 10})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, SweepPoint{Policy: pol, Delta: d, Result: r})
		}
	}
	return out
}

func TestSweepShapesMobile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	deltas := []float64{2, 4}
	points := shortSweep(t, Mobile)
	pooled := series(points, deltas, func(r sim.Result) float64 { return r.PooledStdDev })
	misses := series(points, deltas, func(r sim.Result) float64 { return float64(r.DeadlineMisses) })
	// Figure 7 ordering: thermal balance lowest deviation.
	for i := range deltas {
		if !(pooled[thermalBalance][i] < pooled[energyBalance][i]) {
			t.Errorf("delta %g: TB pooled %.3f !< EB %.3f", deltas[i], pooled[thermalBalance][i], pooled[energyBalance][i])
		}
		if !(pooled[thermalBalance][i] < pooled[stopGo][i]) {
			t.Errorf("delta %g: TB pooled %.3f !< S&G %.3f", deltas[i], pooled[thermalBalance][i], pooled[stopGo][i])
		}
	}
	// Figure 8: S&G misses far above TB.
	for i := range deltas {
		if misses[stopGo][i] < 50*math.Max(misses[thermalBalance][i], 1) {
			t.Errorf("delta %g: S&G misses %.0f not >> TB %.0f", deltas[i], misses[stopGo][i], misses[thermalBalance][i])
		}
	}
	// Figure 11: rate declines with threshold.
	rates := series(points, deltas, func(r sim.Result) float64 { return r.MigrationsPerSec })
	if !(rates[thermalBalance][0] > rates[thermalBalance][1]) {
		t.Errorf("migration rate not declining: %v", rates[thermalBalance])
	}
	// Formatters render.
	if !strings.Contains(FormatStdDevFigure("Figure 7", Mobile, points, deltas), "thermal-balance") {
		t.Error("FormatStdDevFigure broken")
	}
	if !strings.Contains(FormatMissFigure("Figure 8", Mobile, points, deltas), "misses") {
		t.Error("FormatMissFigure broken")
	}
}

func TestFig11HighPerfAboveMobile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	deltas := []float64{3}
	run := func(pkg PackageSel) []SweepPoint {
		r, _, err := Run(RunConfig{PolicyName: thermalBalance, Delta: 3, Package: pkg, MeasureS: 15})
		if err != nil {
			t.Fatal(err)
		}
		return []SweepPoint{{Policy: thermalBalance, Delta: 3, Result: r}}
	}
	mob := run(Mobile)
	hp := run(HighPerf)
	pts := Fig11(mob, hp, deltas)
	var mRate, hRate float64
	for _, p := range pts {
		if p.Package == Mobile {
			mRate = p.PerSec
		} else {
			hRate = p.PerSec
		}
	}
	if hRate <= mRate {
		t.Errorf("high-perf %.2f/s <= mobile %.2f/s", hRate, mRate)
	}
	if !strings.Contains(FormatFig11(pts), "Figure 11") {
		t.Error("FormatFig11 broken")
	}
}

// TestFormatFig11RendersPointDeltas: the figure's rows come from the
// points' own deltas, ascending, not from the default 2..5 axis.
func TestFormatFig11RendersPointDeltas(t *testing.T) {
	deltas := []float64{6, 1}
	tb := func(perSec, bytesPerSec float64) []SweepPoint {
		var pts []SweepPoint
		for _, d := range deltas {
			pts = append(pts, SweepPoint{Policy: thermalBalance, Delta: d,
				Result: sim.Result{MigrationsPerSec: perSec * d, BytesPerSec: bytesPerSec * d}})
		}
		return pts
	}
	got := FormatFig11(Fig11(tb(0.25, 1024), tb(0.5, 2048), deltas))
	want := "Figure 11: Migrations per second (thermal-balance) for both systems\n" +
		"  delta   mobile (mig/s, KB/s)   high-perf (mig/s, KB/s)\n" +
		"      1     0.25       1.0         0.50       2.0\n" +
		"      6     1.50       6.0         3.00      12.0\n"
	if got != want {
		t.Errorf("FormatFig11 =\n%s\nwant\n%s", got, want)
	}
}

// TestFormatMissFigureWindow: the header names the window the points
// were measured over (10 s for the manycore and generated scenarios),
// not the paper's default.
func TestFormatMissFigureWindow(t *testing.T) {
	var pts []SweepPoint
	for _, pol := range []string{energyBalance, stopGo, thermalBalance} {
		pts = append(pts, SweepPoint{Policy: pol, Delta: 3, Result: sim.Result{MeasuredS: 10}})
	}
	out := FormatMissFigure("Figure 8", Mobile, pts, []float64{3})
	if want := "Figure 8: Deadline misses vs threshold (" + Mobile.String() + ", 10s window)\n"; !strings.HasPrefix(out, want) {
		t.Errorf("FormatMissFigure header:\n%s\nwant prefix %q", out, want)
	}
}

// TestRunConfigDefaults: a zero RunConfig runs the paper's benchmark
// at the paper's phases and the scenario's queue capacity, 11; a
// positive capacity overrides it.
func TestRunConfigDefaults(t *testing.T) {
	sc, err := RunConfig{}.scenario()
	if err != nil {
		t.Fatal(err)
	}
	w, m, err := Phases(sc, 0, 0)
	if err != nil || w != DefaultWarmupS || m != DefaultMeasureS {
		t.Errorf("default phases = %g s + %g s (%v)", w, m, err)
	}
	if q := QueueCap(sc, 0); q != 11 {
		t.Errorf("default queue capacity = %d, want 11", q)
	}
	if q := QueueCap(sc, 5); q != 5 {
		t.Errorf("queue capacity override = %d, want 5", q)
	}
}

func TestSelectorsString(t *testing.T) {
	if Mobile.String() != "mobile-embedded" || HighPerf.String() != "high-performance" {
		t.Error("package names")
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if _, _, err := Run(RunConfig{Scenario: "bogus"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestRunUnknownPolicyName: every policy comes from the registry, so a
// missing or unknown name and a threshold policy without a positive
// delta are errors, never a panic.
func TestRunUnknownPolicyName(t *testing.T) {
	for _, rc := range []RunConfig{
		{PolicyName: "bogus"},
		{PolicyName: ""},
		{PolicyName: thermalBalance},
		{PolicyName: stopGo},
	} {
		rc.WarmupS, rc.MeasureS = 1, 1
		if _, _, err := Run(rc); err == nil {
			t.Errorf("Run(%q, delta 0) accepted", rc.PolicyName)
		}
	}
}

// TestRunRejectsNonFiniteInputs: a non-finite delta, warm-up or
// measure window, or a window whose end tick overflows int64, is an
// error before anything is simulated, not a run over garbage.
func TestRunRejectsNonFiniteInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		rc   RunConfig
		want string
	}{
		{RunConfig{Delta: nan}, "threshold delta NaN"},
		{RunConfig{Delta: inf}, "threshold delta +Inf"},
		{RunConfig{Delta: 3, WarmupS: nan}, "warm-up NaN s is not finite"},
		{RunConfig{Delta: 3, WarmupS: -inf}, "warm-up -Inf s is not finite"},
		{RunConfig{Delta: 3, MeasureS: inf}, "measure window +Inf s is not finite"},
		{RunConfig{Delta: 3, MeasureS: 1e300}, "overflows the 0.0001 s tick counter"},
		{RunConfig{Delta: 3, WarmupS: 5e14, MeasureS: 5e14}, "overflows"},
	} {
		c.rc.PolicyName = thermalBalance
		if _, _, err := Run(c.rc); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(delta %g, warm-up %g, measure %g) = %v, want an error containing %q",
				c.rc.Delta, c.rc.WarmupS, c.rc.MeasureS, err, c.want)
		}
	}
}

// TestPhasesTickBound: the largest window Phases accepts still has an
// end tick inside int64, and the next one up is refused.
func TestPhasesTickBound(t *testing.T) {
	var sc scenario.Scenario
	w, m, err := Phases(sc, 1, 9e14)
	if err != nil {
		t.Fatalf("Phases(1, 9e14): %v", err)
	}
	if end := (w + m) / sim.TickS; end >= math.MaxInt64 || int64(end) <= 0 {
		t.Errorf("accepted window ends at tick %g, outside int64", end)
	}
	if _, _, err := Phases(sc, 1, 1e15); err == nil {
		t.Error("Phases(1, 1e15) accepted a window past the int64 tick range")
	}
}
