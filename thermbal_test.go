package thermbal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"thermbal/internal/request"
	"thermbal/internal/service"
)

func TestRunFacade(t *testing.T) {
	res, err := Run(Config{
		Policy:   "thermal-balance",
		Delta:    3,
		Package:  "mobile-embedded",
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
		Policy:    "thermal-balance",
		Delta:     2,
		Mechanism: "recreation",
		WarmupS:   12.5,
		MeasureS:  6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Recreation moves state+code per migration.
	if res.Migrations > 0 && res.MigratedBytes <= float64(res.Migrations)*64*1024 {
		t.Errorf("recreation moved only %g bytes over %d migrations", res.MigratedBytes, res.Migrations)
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
		Policy:   "thermal-balance",
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
	res, err := Run(Config{Policy: "thermal-balance", Delta: 3, WarmupS: 0.5, MeasureS: 1})
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
	cfg := Config{Policy: "thermal-balance", Delta: 3, WarmupS: 0.5, MeasureS: 1}
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
	// differently (a policy alias) hits the same record.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	again, hit, err := st2.RunSummary(Config{Policy: "tb", Delta: 3, WarmupS: 0.5, MeasureS: 1})
	if err != nil || !hit {
		t.Fatalf("reopened RunSummary: hit=%v err=%v", hit, err)
	}
	if again != cold {
		t.Errorf("reopened summary differs: %+v vs %+v", again, cold)
	}
}

// TestFacadePathsAgree: a Config is the service's /run body, so Run,
// RunSummary, Store.RunSummary and a POST /run of the same Config all
// resolve it through one canonicalization and agree on every config. A
// zero Config runs the scenario's default policy and threshold on
// every path; it must neither run unthresholded nor panic.
func TestFacadePathsAgree(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := service.New(service.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	run := func(f func() (Result, error)) (res Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return f()
	}
	sp := GenerateScenario(7)
	for _, cfg := range []Config{
		{},
		{Policy: "stop&go"},
		{Policy: "thermal-balance"},
		{Scenario: "video-decoder"},
		{Spec: &sp},
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
		served := postRun(t, ts.URL, cfg)
		if got := Summarize(res); !reflect.DeepEqual(got, direct) || !reflect.DeepEqual(got, stored) || !reflect.DeepEqual(got, served) {
			t.Errorf("%+v: paths disagree:\n Run:          %+v\n RunSummary:   %+v\n Store:        %+v\n POST /run:    %+v",
				cfg, got, direct, stored, served)
		}
	}
}

// postRun posts cfg to the service's /run and returns the document's
// result.
func postRun(t *testing.T, url string, cfg Config) Summary {
	t.Helper()
	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc request.RunDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run %s: status %d, %v", body, resp.StatusCode, err)
	}
	return doc.Result
}

// TestRunFacadeRejectsNonFiniteInputs: the facade canonicalizes like
// the service, so a non-finite delta or phase, or a window past the
// int64 tick range, is an error rather than a run over garbage.
func TestRunFacadeRejectsNonFiniteInputs(t *testing.T) {
	for _, cfg := range []Config{
		{Policy: "thermal-balance", Delta: math.NaN()},
		{Policy: "stop-go", Delta: math.Inf(1)},
		{Policy: "thermal-balance", Delta: 3, WarmupS: math.NaN()},
		{Policy: "thermal-balance", Delta: 3, MeasureS: math.Inf(1)},
		{Policy: "thermal-balance", Delta: 3, MeasureS: 1e300},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run(delta %g, warm-up %g, measure %g) accepted", cfg.Delta, cfg.WarmupS, cfg.MeasureS)
		}
		if _, err := RunSummary(cfg); err == nil {
			t.Errorf("RunSummary(delta %g, warm-up %g, measure %g) accepted", cfg.Delta, cfg.WarmupS, cfg.MeasureS)
		}
	}
}

// A spec whose sink prefill exceeds the sink queue's capacity is an
// error from the facade, as from the service: the sink could never
// fill to its threshold and would report no deadlines.
func TestRunSpecRejectsPrefillAboveCapacity(t *testing.T) {
	sp := GenerateScenario(7)
	sp.Graph.Sink.Prefill = 40
	if _, err := Run(Config{Spec: &sp, WarmupS: 0.1, MeasureS: 0.1}); err == nil || !strings.Contains(err.Error(), "graph.sink.prefill") {
		t.Errorf("prefill 40 on %d-frame queues: %v", sp.Graph.QueueCap, err)
	}
	sp.Graph.Sink.Prefill = 2
	if _, err := Run(Config{Spec: &sp, WarmupS: 0.1, MeasureS: 0.1, QueueCap: 2}); err != nil {
		t.Errorf("prefill 2 on 2-frame queues: %v", err)
	}
}
