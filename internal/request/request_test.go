package request_test

import (
	"encoding/json"
	"strings"
	"testing"

	"thermbal/internal/cliutil"
	"thermbal/internal/policy"
	. "thermbal/internal/request"
	"thermbal/internal/scenario"
)

// goldenKey is the content address of the paper's default operating
// point (sdr-radio, thermal-balance, delta 3, mobile package, 12.5 s +
// 30 s, queue 11, task-replication, Euler), computed once and frozen:
// the key derivation must stay stable across processes, platforms and
// future commits, or cached results would silently lose their
// identity. Bump only together with the keyString version tag.
const goldenKey = "481807daf47fffe75ee68176dfd76e2dd379ace340977bf79393c46d8e3e8fb9"

func mustCanon(t *testing.T, req Request) Request {
	t.Helper()
	canon, _, err := Canonicalize(req)
	if err != nil {
		t.Fatalf("Canonicalize(%+v): %v", req, err)
	}
	return canon
}

func TestCanonicalizeFillsDefaults(t *testing.T) {
	canon := mustCanon(t, Request{})
	want := Request{
		Scenario: "sdr-radio", Policy: "thermal-balance", Delta: 3,
		Package: "mobile-embedded", WarmupS: 12.5, MeasureS: 30,
		QueueCap: 11, Mechanism: "task-replication", Integrator: "euler",
	}
	if canon != want {
		t.Errorf("canonical defaults = %+v, want %+v", canon, want)
	}
}

func TestKeyGoldenStableAcrossProcesses(t *testing.T) {
	if got := mustCanon(t, Request{}).Key(); got != goldenKey {
		t.Errorf("default request key = %s, want the frozen %s", got, goldenKey)
	}
}

func TestKeyAliasAndDefaultInsensitive(t *testing.T) {
	// Every spelling of the same run must share one cache line.
	variants := []Request{
		{}, // all defaults
		{Scenario: "sdr-radio"},
		{Policy: "thermal-balance"},
		{Policy: "tb"},
		{Policy: "migra"},
		{Package: "mobile"},
		{Package: "embedded"},
		{Package: "mobile-embedded"},
		{Mechanism: "replication"},
		{Mechanism: "task-replication"},
		{Integrator: "euler"},
		{Delta: 3, WarmupS: 12.5, MeasureS: 30, QueueCap: 11},
	}
	for _, v := range variants {
		if got := mustCanon(t, v).Key(); got != goldenKey {
			t.Errorf("Key(%+v) = %s, want %s", v, got, goldenKey)
		}
	}
}

func TestKeyFieldOrderInsensitive(t *testing.T) {
	bodies := []string{
		`{"scenario":"sdr-radio","policy":"tb","delta":3,"integrator":"euler"}`,
		`{"integrator":"euler","delta":3,"policy":"thermal-balance","scenario":"sdr-radio"}`,
		`{"delta":3}`,
	}
	for _, b := range bodies {
		var req Request
		if err := json.Unmarshal([]byte(b), &req); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got := mustCanon(t, req).Key(); got != goldenKey {
			t.Errorf("Key(%s) = %s, want %s", b, got, goldenKey)
		}
	}
}

func TestKeySeparatesDistinctRuns(t *testing.T) {
	base := mustCanon(t, Request{}).Key()
	distinct := []Request{
		{Delta: 4},
		{Policy: "stop-go"},
		{Package: "hp"},
		{Scenario: "video-decoder"},
		{MeasureS: 31},
		{QueueCap: 12},
		{Mechanism: "recreation"},
		{Integrator: "expm"},
	}
	seen := map[string]string{base: "default"}
	for _, req := range distinct {
		key := mustCanon(t, req).Key()
		if prev, dup := seen[key]; dup {
			t.Errorf("Key(%+v) collides with %s", req, prev)
		}
		seen[key] = "variant"
	}
}

// Every spelling of the exact scheme canonicalizes to "expm" and all
// share one content address, distinct from the Euler default's.
func TestKeyExpmAliasInsensitive(t *testing.T) {
	base := mustCanon(t, Request{Integrator: "expm"})
	if base.Integrator != "expm" {
		t.Fatalf("canonical integrator = %q, want expm", base.Integrator)
	}
	if base.Key() == goldenKey {
		t.Error("expm request collides with the Euler default key")
	}
	for _, alias := range []string{"exp", "exact"} {
		if got := mustCanon(t, Request{Integrator: alias}).Key(); got != base.Key() {
			t.Errorf("Key(integrator=%q) = %s, want the expm key %s", alias, got, base.Key())
		}
	}
}

func TestCanonicalizeRejectsUnknownWithSuggestion(t *testing.T) {
	_, _, err := Canonicalize(Request{Scenario: "sdr-raido"})
	if err == nil || !strings.Contains(err.Error(), `did you mean "sdr-radio"?`) {
		t.Errorf("unknown scenario error = %v, want a did-you-mean for sdr-radio", err)
	}
	_, _, err = Canonicalize(Request{Policy: "thermal-balanc"})
	if err == nil || !strings.Contains(err.Error(), `did you mean "thermal-balance"?`) {
		t.Errorf("unknown policy error = %v, want a did-you-mean for thermal-balance", err)
	}
	if _, _, err := Canonicalize(Request{Delta: -1}); err == nil {
		t.Error("negative delta accepted")
	}
	if _, _, err := Canonicalize(Request{Mechanism: "teleport"}); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

func TestCanonicalizeMatrix(t *testing.T) {
	canon, err := CanonicalizeMatrix(MatrixRequest{
		Scenarios: []string{"sdr-radio", "sdr-radio", "video-decoder"},
		Policies:  []string{"tb", "thermal-balance", "eb"},
	})
	if err != nil {
		t.Fatalf("CanonicalizeMatrix: %v", err)
	}
	if want := []string{"sdr-radio", "video-decoder"}; !equalStrings(canon.Scenarios, want) {
		t.Errorf("scenarios = %v, want %v", canon.Scenarios, want)
	}
	if want := []string{"thermal-balance", "energy-balance"}; !equalStrings(canon.Policies, want) {
		t.Errorf("policies = %v, want %v", canon.Policies, want)
	}
	// The cells are the scenario-major cross product of the canonical
	// axes, each keyed exactly like a direct /run of its configuration.
	cells, err := MatrixCells(canon)
	if err != nil {
		t.Fatalf("MatrixCells: %v", err)
	}
	if len(cells) != 4 {
		t.Fatalf("%d cells, want 2 x 2", len(cells))
	}
	for i, c := range cells {
		sn, pn := canon.Scenarios[i/2], canon.Policies[i%2]
		if c.Request.Scenario != sn || c.Request.Policy != pn || c.Config.Scenario != sn || c.Config.PolicyName != pn {
			t.Errorf("cell %d = %s/%s (run config %s/%s), want %s/%s",
				i, c.Request.Scenario, c.Request.Policy, c.Config.Scenario, c.Config.PolicyName, sn, pn)
		}
		direct, _, err := Canonicalize(Request{Scenario: sn, Policy: pn})
		if err != nil {
			t.Fatal(err)
		}
		if c.Request.Key() != direct.Key() {
			t.Errorf("cell %s/%s key differs from a direct /run's", sn, pn)
		}
	}

	// Alias spellings and axis defaults canonicalize to the same key.
	k1 := canon.Key()
	canon2, err := CanonicalizeMatrix(MatrixRequest{
		Scenarios:  []string{"sdr-radio", "video-decoder"},
		Policies:   []string{"migra", "energy-balance"},
		Package:    "mobile",
		Mechanism:  "replication",
		Integrator: "euler",
	})
	if err != nil {
		t.Fatalf("CanonicalizeMatrix: %v", err)
	}
	if k2 := canon2.Key(); k2 != k1 {
		t.Errorf("alias matrix key %s != %s", k2, k1)
	}
	// Empty axes select everything.
	all, err := CanonicalizeMatrix(MatrixRequest{})
	if err != nil {
		t.Fatalf("CanonicalizeMatrix(all): %v", err)
	}
	if len(all.Scenarios) < 2 || len(all.Policies) < 2 {
		t.Errorf("empty axes resolved to %v x %v", all.Scenarios, all.Policies)
	}
	if all.Key() == k1 {
		t.Error("full matrix key collides with the 2x2 slice")
	}
}

// TestCanonicalizeMatrixAxes resolves matrix axes spelled as the CLIs'
// -scenario/-policy flag values: "" and "all" select every registered
// name, lists resolve aliases, collapse duplicates and keep input
// order, and unknown names fail with a did-you-mean suggestion.
func TestCanonicalizeMatrixAxes(t *testing.T) {
	if len(scenario.Names()) < 6 || len(policy.Names()) < 3 {
		t.Fatalf("registries hold %v x %v, want >= 6 scenarios and >= 3 policies", scenario.Names(), policy.Names())
	}
	for _, c := range []struct {
		scenarios, policies         string
		wantScenarios, wantPolicies []string // nil: every registered name
		wantErr                     string
	}{
		{scenarios: "", policies: "all"},
		{scenarios: "all", policies: ""},
		{scenarios: "video-decoder, sdr-radio,video-decoder", policies: "tb, eb, thermal-balance",
			wantScenarios: []string{"video-decoder", "sdr-radio"}, wantPolicies: []string{"thermal-balance", "energy-balance"}},
		{scenarios: "sdr-radio", policies: "stop&go,sg,none",
			wantScenarios: []string{"sdr-radio"}, wantPolicies: []string{"stop-go", "none"}},
		{scenarios: "bogus", wantErr: `unknown scenario "bogus"`},
		{scenarios: "sdr-radio,video-decodr", wantErr: `did you mean "video-decoder"?`},
		{scenarios: "sdr-radio", policies: "bogus", wantErr: `unknown policy "bogus"`},
		{scenarios: "sdr-radio", policies: "eb,thermal-balanc", wantErr: `did you mean "thermal-balance"?`},
	} {
		canon, err := CanonicalizeMatrix(MatrixRequest{
			Scenarios: cliutil.MatrixAxis(c.scenarios),
			Policies:  cliutil.MatrixAxis(c.policies),
		})
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("axes %q x %q: error %v, want %q", c.scenarios, c.policies, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("axes %q x %q: %v", c.scenarios, c.policies, err)
			continue
		}
		if c.wantScenarios == nil {
			c.wantScenarios = scenario.Names()
		}
		if c.wantPolicies == nil {
			c.wantPolicies = policy.Names()
		}
		if !equalStrings(canon.Scenarios, c.wantScenarios) || !equalStrings(canon.Policies, c.wantPolicies) {
			t.Errorf("axes %q x %q resolved to %v x %v, want %v x %v", c.scenarios, c.policies,
				canon.Scenarios, canon.Policies, c.wantScenarios, c.wantPolicies)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInlineSpecLabelResolution pins how an inline spec's omitted
// labels (name, phases, default policy and delta) resolve. A builtin's
// spec with every label stripped is still that builtin: it takes the
// builtin's name and defaults (manycore-64: δ 2, 5 s + 10 s). The same
// spec with one load changed is a custom workload: it takes
// thermal-balance, δ 3 and the paper's 12.5 s + 30 s, and its spec
// stays unlabeled in the canonical request.
func TestInlineSpecLabelResolution(t *testing.T) {
	sc, err := scenario.Lookup("manycore-64")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cliutil.SpecJSON(sc)
	if err != nil {
		t.Fatal(err)
	}
	var bare scenario.Spec
	if err := json.Unmarshal(raw, &bare); err != nil {
		t.Fatal(err)
	}
	bare.Name, bare.WarmupS, bare.MeasureS, bare.DefaultPolicy, bare.DefaultDelta = "", 0, 0, "", 0

	named := mustCanon(t, Request{Spec: &bare})
	want := Request{
		Scenario: "manycore-64", Policy: "thermal-balance", Delta: 2,
		Package: "mobile-embedded", WarmupS: 5, MeasureS: 10,
		QueueCap: 11, Mechanism: "task-replication", Integrator: "euler",
	}
	if named != want {
		t.Errorf("stripped builtin spec canonicalizes to %+v, want %+v", named, want)
	}
	if got, pin := named.Key(), "907b61905013c4969ec55e7bdf9d7b203ea372179c0f71669a39ff1fb50f71a6"; got != pin {
		t.Errorf("stripped builtin spec key = %s, want %s", got, pin)
	}
	if byName := mustCanon(t, Request{Scenario: "manycore-64"}).Key(); named.Key() != byName {
		t.Errorf("stripped builtin spec key %s differs from the named request's %s", named.Key(), byName)
	}

	custom := bare
	custom.Graph.Tasks = append([]scenario.TaskSpec(nil), bare.Graph.Tasks...)
	custom.Graph.Tasks[0].FSE += 0.01
	canon := mustCanon(t, Request{Spec: &custom})
	if canon.Scenario != "" || canon.Spec == nil {
		t.Fatalf("perturbed spec resolved to scenario %q, want an inline spec", canon.Scenario)
	}
	if canon.Policy != "thermal-balance" || canon.Delta != 3 || canon.WarmupS != 12.5 || canon.MeasureS != 30 {
		t.Errorf("perturbed spec: policy %q, δ %g, %g s + %g s; want thermal-balance, δ 3, 12.5 s + 30 s",
			canon.Policy, canon.Delta, canon.WarmupS, canon.MeasureS)
	}
	if s := canon.Spec; s.Name != "" || s.DefaultPolicy != "" || s.DefaultDelta != 0 || s.WarmupS != 0 || s.MeasureS != 0 {
		t.Errorf("canonical spec gained labels: name %q, policy %q, δ %g, %g s + %g s",
			s.Name, s.DefaultPolicy, s.DefaultDelta, s.WarmupS, s.MeasureS)
	}
	if got, pin := canon.Key(), "26a7f9c02a9467eb1e449662824d27952557b9ca4660941339a4ee58572a00ab"; got != pin {
		t.Errorf("perturbed spec key = %s, want %s", got, pin)
	}
}
