package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/request"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
)

// specRunBody builds a /run body carrying the given spec inline with
// the phases of shortRun, so named and inline requests mean one run.
func specRunBody(t *testing.T, sp scenario.Spec) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Spec     scenario.Spec `json:"spec"`
		Policy   string        `json:"policy"`
		Delta    float64       `json:"delta"`
		WarmupS  float64       `json:"warmup_s"`
		MeasureS float64       `json:"measure_s"`
	}{sp, "tb", 3, 0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func builtinSpec(t *testing.T, name string) scenario.Spec {
	t.Helper()
	sc, err := scenario.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Spec
}

// TestInlineSpecSharesBuiltinAddress is the acceptance check for the
// spec front door: an inline-spec /run whose spec equals a builtin's
// canonicalizes to the same content address as the named request, so
// the named run's cached body serves the spec request byte-for-byte —
// even when the inline copy is relabelled.
func TestInlineSpecSharesBuiltinAddress(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, named := do(t, http.MethodPost, ts.URL+"/run", shortRun)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named run: %d %s", resp.StatusCode, named)
	}
	if st := resp.Header.Get("X-Cache"); st != "miss" {
		t.Fatalf("named X-Cache = %q, want miss", st)
	}

	sp := builtinSpec(t, "sdr-radio")
	sp.Name = "my-local-copy" // labels are not identity
	sp.Description = "hand-rolled spelling of the paper benchmark"
	resp, inline := do(t, http.MethodPost, ts.URL+"/run", specRunBody(t, sp))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec run: %d %s", resp.StatusCode, inline)
	}
	if st := resp.Header.Get("X-Cache"); st != "hit" {
		t.Errorf("spec X-Cache = %q, want hit (shared address with the named run)", st)
	}
	if !bytes.Equal(named, inline) {
		t.Errorf("inline-spec body differs from named body:\n%s\nvs\n%s", inline, named)
	}

	// The canonical document names the builtin — no spec echo — so the
	// identity is visible in the response itself.
	var doc request.RunDoc
	if err := json.Unmarshal(inline, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Request.Scenario != "sdr-radio" || doc.Request.Spec != nil {
		t.Errorf("canonical request = %+v, want the named form", doc.Request)
	}
}

// TestInlineSpecPersistsAndRestores: an inline-spec run persists under
// the shared content address, so after a restart on the same store the
// *named* spelling is a store hit with byte-identical body — cache,
// store and canonicalization all agree on one key.
func TestInlineSpecPersistsAndRestores(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Store: openTestStore(t, dir)})
	resp, cold := do(t, http.MethodPost, ts1.URL+"/run", specRunBody(t, builtinSpec(t, "sdr-radio")))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec run: %d %s", resp.StatusCode, cold)
	}

	_, ts2 := newTestServer(t, Config{Store: openTestStore(t, dir)})
	resp, warm := do(t, http.MethodPost, ts2.URL+"/run", shortRun)
	if st := resp.Header.Get("X-Cache"); st != "store" {
		t.Errorf("restarted named X-Cache = %q, want store", st)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("restored named body differs from the inline-spec original")
	}
}

// TestMixedSpellingsCoalesce: concurrent named and inline-spec requests
// for the same run attach to one in-flight execution.
func TestMixedSpellingsCoalesce(t *testing.T) {
	release := make(chan struct{})
	var execs atomic.Int64
	s, ts := newTestServer(t, Config{
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			execs.Add(1)
			<-release
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})

	bodies := [2]string{shortRun, specRunBody(t, builtinSpec(t, "sdr-radio"))}
	results := [2][]byte{}
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			resp, b := do(t, http.MethodPost, ts.URL+"/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, b)
			}
			results[i] = b
		}(i, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		inflight, coalesced := s.flight.counts()
		if inflight == 1 && coalesced == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never coalesced: inflight=%d coalesced=%d", inflight, coalesced)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Error("named and spec spellings returned different bodies")
	}
}

// TestInlineSpecNonBuiltin: a spec that matches no builtin is keyed by
// its canonical hash, echoed in normalized form, and cached like any
// named run.
func TestInlineSpecNonBuiltin(t *testing.T) {
	sp := builtinSpec(t, "sdr-radio")
	sp.Graph.Tasks = append([]scenario.TaskSpec(nil), sp.Graph.Tasks...)
	sp.Graph.Tasks[0].FSE = 0.123
	_, ts := newTestServer(t, Config{})

	resp, b1 := do(t, http.MethodPost, ts.URL+"/run", specRunBody(t, sp))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("custom spec run: %d %s", resp.StatusCode, b1)
	}
	if st := resp.Header.Get("X-Cache"); st != "miss" {
		t.Errorf("first custom-spec X-Cache = %q, want miss", st)
	}
	var doc request.RunDoc
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Request.Spec == nil || doc.Request.Scenario != "" {
		t.Fatalf("canonical request should carry the spec inline: %+v", doc.Request)
	}
	// An inline spec is keyed by the hash Canonicalize computes, so the
	// echoed request is canonicalized again to derive its key.
	recanon, _, err := request.Canonicalize(doc.Request)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Key != recanon.Key() {
		t.Errorf("doc key %s != request key %s", doc.Key, recanon.Key())
	}
	// The echoed spec is the normalized form: defaults explicit.
	if doc.Request.Spec.Graph.QueueCap != 11 || doc.Request.Spec.Platform.Cores != 3 {
		t.Errorf("echoed spec not normalized: %+v", doc.Request.Spec)
	}

	resp, b2 := do(t, http.MethodPost, ts.URL+"/run", specRunBody(t, sp))
	if st := resp.Header.Get("X-Cache"); st != "hit" {
		t.Errorf("repeat custom-spec X-Cache = %q, want hit", st)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("repeat custom-spec body differs")
	}
}

// TestInlineSpecErrors: the spec front door rejects ambiguous and
// invalid requests with structured 400s, and strict decoding covers
// nested spec fields.
func TestInlineSpecErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body := specRunBody(t, builtinSpec(t, "sdr-radio"))
	both := strings.Replace(body, `{"spec":`, `{"scenario":"sdr-radio","spec":`, 1)
	resp, b := do(t, http.MethodPost, ts.URL+"/run", both)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "mutually exclusive") {
		t.Errorf("spec+scenario: %d %s", resp.StatusCode, b)
	}

	// Validation failures surface the structured problem paths.
	sp := builtinSpec(t, "sdr-radio")
	sp.Graph.Tasks = append([]scenario.TaskSpec(nil), sp.Graph.Tasks...)
	sp.Graph.Tasks[0].FSE = 9
	resp, b = do(t, http.MethodPost, ts.URL+"/run", specRunBody(t, sp))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "graph.tasks[0].fse") {
		t.Errorf("invalid spec: %d %s", resp.StatusCode, b)
	}

	// A misspelled field nested inside the spec must 400, not silently
	// run a near-miss of the intended workload.
	resp, b = do(t, http.MethodPost, ts.URL+"/run",
		`{"spec":{"graph":{"quues":[{"name":"q"}]}}}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "quues") {
		t.Errorf("unknown nested field: %d %s", resp.StatusCode, b)
	}
}

// TestScenariosSpecExport: /scenarios?spec=1 exports every builtin's
// declarative spec, and each round-trips through /run onto the same
// content address as its name.
func TestScenariosSpecExport(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := do(t, http.MethodGet, ts.URL+"/scenarios?spec=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenarios?spec=1: %d %s", resp.StatusCode, b)
	}
	var doc scenariosSpecDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Scenarios) != len(scenario.Names()) {
		t.Fatalf("exported %d scenarios, want %d", len(doc.Scenarios), len(scenario.Names()))
	}
	for _, e := range doc.Scenarios {
		if e.Spec == nil {
			t.Errorf("%s: no spec exported", e.Name)
			continue
		}
		if e.SpecVersion != scenario.SpecVersionV1 {
			t.Errorf("%s: spec_version %d", e.Name, e.SpecVersion)
		}
		sc, err := scenario.FromSpec(*e.Spec)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := sc.Hash()
		if err != nil {
			t.Fatal(err)
		}
		name, ok := scenario.BuiltinNameForSpec(hash)
		if !ok || name != e.Name {
			t.Errorf("%s: exported spec resolves to %q, %v", e.Name, name, ok)
		}
		canonNamed, _, err := request.Canonicalize(request.Request{Scenario: e.Name})
		if err != nil {
			t.Fatal(err)
		}
		canonSpec, _, err := request.Canonicalize(request.Request{Spec: e.Spec})
		if err != nil {
			t.Fatal(err)
		}
		if canonNamed.Key() != canonSpec.Key() {
			t.Errorf("%s: named key %s != spec key %s", e.Name, canonNamed.Key(), canonSpec.Key())
		}
	}

	// Without the flag, the catalogue stays the lean pre-spec shape
	// (plus the spec_version marker).
	var lean scenariosDoc
	_, b = do(t, http.MethodGet, ts.URL+"/scenarios", "")
	if err := json.Unmarshal(b, &lean); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"graph"`)) {
		t.Error("lean catalogue embeds specs")
	}
	for _, info := range lean.Scenarios {
		if info.SpecVersion != scenario.SpecVersionV1 {
			t.Errorf("%s: catalogue spec_version %d", info.Name, info.SpecVersion)
		}
	}
}
