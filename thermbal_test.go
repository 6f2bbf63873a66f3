package thermbal

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"thermbal/internal/experiment"
	"thermbal/internal/request"
)

func TestRunFacade(t *testing.T) {
	res, err := Run(Config{
		Policy:   ThermalBalance,
		Delta:    3,
		Package:  MobileEmbedded,
		WarmupS:  12.5,
		MeasureS: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "thermal-balance" {
		t.Errorf("policy name = %q", res.PolicyName)
	}
	if res.Migrations == 0 {
		t.Error("no migrations at delta 3")
	}
	if res.PooledStdDev <= 0 {
		t.Error("no deviation measured")
	}
}

func TestRunFacadeRecreation(t *testing.T) {
	res, err := Run(Config{
		Policy:     ThermalBalance,
		Delta:      2,
		Recreation: true,
		WarmupS:    12.5,
		MeasureS:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Recreation moves state+code per migration.
	if res.Migrations > 0 && res.MigratedBytes <= float64(res.Migrations)*64*1024 {
		t.Errorf("recreation moved only %g bytes over %d migrations", res.MigratedBytes, res.Migrations)
	}
}

func TestKindStrings(t *testing.T) {
	if EnergyBalance.String() != "energy-balance" ||
		StopGo.String() != "stop&go" ||
		ThermalBalance.String() != "thermal-balance" {
		t.Error("policy kind names wrong")
	}
	if MobileEmbedded.String() != "mobile-embedded" ||
		HighPerformance.String() != "high-performance" {
		t.Error("package kind names wrong")
	}
	if EulerIntegrator.String() != "euler" || ExpmIntegrator.String() != "expm" {
		t.Error("integrator kind names wrong")
	}
	// A kind outside its table has no wire name, so runs reject it.
	if got := PolicyKind(9).String(); got != "PolicyKind(9)" {
		t.Errorf("PolicyKind(9).String() = %q", got)
	}
	if _, err := Run(Config{Policy: PolicyKind(9), WarmupS: 0.1, MeasureS: 0.1}); err == nil {
		t.Error("Run accepted an out-of-range PolicyKind")
	}
}

func TestDeltasCopy(t *testing.T) {
	d := Deltas()
	if len(d) != 4 || d[0] != 2 || d[3] != 5 {
		t.Errorf("Deltas = %v", d)
	}
	d[0] = 99
	if Deltas()[0] != 2 {
		t.Error("Deltas returned shared slice")
	}
}

func TestTables(t *testing.T) {
	if !strings.Contains(Table1(), "0.500 W") {
		t.Errorf("Table1:\n%s", Table1())
	}
	t2, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2, "BPF2") {
		t.Errorf("Table2:\n%s", t2)
	}
}

func TestFigure2Renders(t *testing.T) {
	f2, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f2, "task-recreation") {
		t.Errorf("Figure2:\n%s", f2)
	}
}

func TestRunSummarySchema(t *testing.T) {
	sum, err := RunSummary(Config{
		Policy:   ThermalBalance,
		Delta:    3,
		WarmupS:  0.5,
		MeasureS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Policy != "thermal-balance" || sum.MeasuredS != 1 {
		t.Errorf("summary header = %q, %g", sum.Policy, sum.MeasuredS)
	}
	if sum.Temperature.PooledStdDevC <= 0 {
		t.Error("no pooled deviation in summary")
	}
	// The summary is a pure view: it must agree with Run's raw result.
	res, err := Run(Config{Policy: ThermalBalance, Delta: 3, WarmupS: 0.5, MeasureS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := Summarize(res); got != sum {
		t.Errorf("Summarize(Run()) = %+v, want %+v (determinism or view mismatch)", got, sum)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"pooled_stddev_c"`, `"deadline_misses"`, `"per_sec"`, `"total_energy_j"`} {
		if !strings.Contains(string(b), field) {
			t.Errorf("schema JSON missing %s: %s", field, b)
		}
	}
	if SchemaVersion != 1 {
		t.Errorf("SchemaVersion = %d", SchemaVersion)
	}
}

func TestStoreFacade(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: ThermalBalance, Delta: 3, WarmupS: 0.5, MeasureS: 1}
	cold, hit, err := st.RunSummary(cfg)
	if err != nil || hit {
		t.Fatalf("cold RunSummary: hit=%v err=%v", hit, err)
	}
	warm, hit, err := st.RunSummary(cfg)
	if err != nil || !hit {
		t.Fatalf("warm RunSummary: hit=%v err=%v", hit, err)
	}
	if warm != cold {
		t.Errorf("stored summary differs: %+v vs %+v", warm, cold)
	}
	if s := st.Stats(); s.Records != 1 || s.Bytes == 0 {
		t.Errorf("store stats = %+v", s)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process (store handle) over the same directory serves the
	// persisted result without re-running, and spelling the same run
	// through different vocabulary (policy alias via PolicyName) hits
	// the same record.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	again, hit, err := st2.RunSummary(Config{PolicyName: "tb", Delta: 3, WarmupS: 0.5, MeasureS: 1})
	if err != nil || !hit {
		t.Fatalf("reopened RunSummary: hit=%v err=%v", hit, err)
	}
	if again != cold {
		t.Errorf("reopened summary differs: %+v vs %+v", again, cold)
	}
}

// TestFacadePathsAgree: Run, RunSummary and Store.RunSummary resolve a
// Config through the one canonicalization the service uses, so they
// agree on every config. A zero Delta takes the scenario's default
// threshold on every path; it must neither run unthresholded nor panic.
func TestFacadePathsAgree(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	run := func(f func() (Result, error)) (res Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return f()
	}
	for _, cfg := range []Config{
		{},
		{Policy: StopGo},
		{Policy: ThermalBalance},
		{Scenario: "video-decoder"},
	} {
		cfg.WarmupS, cfg.MeasureS = 1, 2
		res, err := run(func() (Result, error) { return Run(cfg) })
		if err != nil {
			t.Errorf("Run(%+v): %v", cfg, err)
			continue
		}
		direct, err := RunSummary(cfg)
		if err != nil {
			t.Fatalf("RunSummary(%+v): %v", cfg, err)
		}
		stored, _, err := st.RunSummary(cfg)
		if err != nil {
			t.Fatalf("Store.RunSummary(%+v): %v", cfg, err)
		}
		if got := Summarize(res); !reflect.DeepEqual(got, direct) || !reflect.DeepEqual(got, stored) {
			t.Errorf("%+v: paths disagree:\n Run:          %+v\n RunSummary:   %+v\n Store:        %+v", cfg, got, direct, stored)
		}
	}

	// A spec run agrees with the service's /run of the same spec.
	sp := GenerateScenario(7)
	cfg := Config{WarmupS: 1, MeasureS: 2}
	res, err := run(func() (Result, error) { return RunSpec(sp, cfg) })
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	_, rc, err := request.Canonicalize(request.Request{Spec: &sp, Policy: "energy-balance", WarmupS: 1, MeasureS: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := experiment.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Summarize(res), experiment.Summarize(want)) {
		t.Errorf("RunSpec disagrees with the service path:\n RunSpec: %+v\n service: %+v", Summarize(res), experiment.Summarize(want))
	}
}

// TestRunFacadeRejectsNonFiniteInputs: the facade canonicalizes like
// the service, so a non-finite delta or phase, or a window past the
// int64 tick range, is an error rather than a run over garbage.
func TestRunFacadeRejectsNonFiniteInputs(t *testing.T) {
	for _, cfg := range []Config{
		{Policy: ThermalBalance, Delta: math.NaN()},
		{Policy: StopGo, Delta: math.Inf(1)},
		{Policy: ThermalBalance, Delta: 3, WarmupS: math.NaN()},
		{Policy: ThermalBalance, Delta: 3, MeasureS: math.Inf(1)},
		{Policy: ThermalBalance, Delta: 3, MeasureS: 1e300},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run(delta %g, warm-up %g, measure %g) accepted", cfg.Delta, cfg.WarmupS, cfg.MeasureS)
		}
		if _, err := RunSummary(cfg); err == nil {
			t.Errorf("RunSummary(delta %g, warm-up %g, measure %g) accepted", cfg.Delta, cfg.WarmupS, cfg.MeasureS)
		}
	}
}
