package cliutil

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thermbal/internal/scenario"
)

// writeSpecFile dumps a builtin's spec to a temp file and returns the
// path.
func writeSpecFile(t *testing.T, name string) string {
	t.Helper()
	sc, err := scenario.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(sc.Spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestResolveScenarioFilePathHint: passing a file path to -scenario
// gets a pointer to -scenario-file, not a Levenshtein guess at the
// catalogue.
func TestResolveScenarioFilePathHint(t *testing.T) {
	path := writeSpecFile(t, "sdr-radio")
	_, err := ResolveScenario(path)
	if err == nil {
		t.Fatal("file path resolved as a scenario name")
	}
	if !strings.Contains(err.Error(), "-scenario-file") {
		t.Errorf("no -scenario-file hint: %v", err)
	}
	if strings.Contains(err.Error(), "did you mean") {
		t.Errorf("file path still got a name suggestion: %v", err)
	}
	// A directory is not a spec file; fall back to the normal
	// did-you-mean path.
	if _, err := ResolveScenario(t.TempDir()); err == nil ||
		strings.Contains(err.Error(), "-scenario-file") {
		t.Errorf("directory triggered the file hint: %v", err)
	}
}

func TestLoadSpec(t *testing.T) {
	path := writeSpecFile(t, "sdr-radio")
	sp, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if name, ok := scenario.BuiltinNameForSpec(sp); !ok || name != "sdr-radio" {
		t.Errorf("loaded spec resolves to %q, %v", name, ok)
	}
	if sp.Graph.QueueCap != 11 {
		t.Errorf("loaded spec not normalized: queue_cap %d", sp.Graph.QueueCap)
	}

	writeCase := func(content string) string {
		p := filepath.Join(t.TempDir(), "case.json")
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := LoadSpec(writeCase(`{"grpah":{}}`)); err == nil ||
		!strings.Contains(err.Error(), "grpah") {
		t.Errorf("unknown field not rejected: %v", err)
	}
	if _, err := LoadSpec(writeCase(`{} {}`)); err == nil ||
		!strings.Contains(err.Error(), "trailing data") {
		t.Errorf("trailing data not rejected: %v", err)
	}
	if _, err := LoadSpec(writeCase(`{}`)); err == nil ||
		!strings.Contains(err.Error(), "at least one") {
		t.Errorf("empty spec not validated: %v", err)
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file not an error")
	}
}

// mustHash is sc's content hash.
func mustHash(t *testing.T, sc scenario.Scenario) string {
	t.Helper()
	h, err := sc.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestResolveScenarioArg(t *testing.T) {
	builtin, err := scenario.Lookup("sdr-radio")
	if err != nil {
		t.Fatal(err)
	}
	// Name only: the catalogue entry.
	sc, err := ResolveScenarioArg("video-decoder", "")
	if err != nil || sc.Name != "video-decoder" || strings.HasPrefix(sc.Topology, "spec:") {
		t.Errorf("name resolution: %v, name %q, topology %q", err, sc.Name, sc.Topology)
	}
	// Empty both: the default scenario.
	sc, err = ResolveScenarioArg("", "")
	if err != nil || sc.Name != scenario.DefaultName || sc.Topology != builtin.Topology {
		t.Errorf("default resolution: %v, name %q, topology %q", err, sc.Name, sc.Topology)
	}
	// File only: loads through the spec path, to the builtin's content.
	path := writeSpecFile(t, "sdr-radio")
	sc, err = ResolveScenarioArg("", path)
	if err != nil || !strings.HasPrefix(sc.Topology, "spec:") {
		t.Fatalf("file resolution: %v, topology %q", err, sc.Topology)
	}
	if sc.Name != "sdr-radio" || mustHash(t, sc) != mustHash(t, builtin) {
		t.Errorf("file scenario %q, hash %s; want the builtin's", sc.Name, mustHash(t, sc))
	}
	// Both: mutually exclusive.
	if _, err := ResolveScenarioArg("sdr-radio", path); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("both flags accepted: %v", err)
	}
}

// TestSpecArg: a request's flag pair yields the file's decoded spec
// (normalized later, by canonicalization) or nil for a name, with the
// same refusals ResolveScenarioArg makes.
func TestSpecArg(t *testing.T) {
	if sp, err := SpecArg("video-decoder", ""); sp != nil || err != nil {
		t.Errorf("name: spec %v, err %v", sp, err)
	}
	path := writeSpecFile(t, "sdr-radio")
	if _, err := SpecArg(path, ""); err == nil || !strings.Contains(err.Error(), "-scenario-file") {
		t.Errorf("file path as a name: %v", err)
	}
	if _, err := SpecArg("sdr-radio", path); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("both flags accepted: %v", err)
	}
	// A spec that fails validation decodes: the error comes when it is
	// normalized.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if sp, err := SpecArg("", bad); err != nil || sp == nil {
		t.Fatalf("file: spec %v, err %v", sp, err)
	}
	if _, err := SpecArg("", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file not an error")
	}
}

// TestSpecJSONRoundTrip: -dump-spec output loads back to the same
// content identity.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, s := range scenario.All() {
		out, err := SpecJSON(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		p := filepath.Join(t.TempDir(), s.Name+".json")
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		sp, err := LoadSpec(p)
		if err != nil {
			t.Fatalf("%s: reload: %v", s.Name, err)
		}
		if mustHash(t, sp) != mustHash(t, s) {
			t.Errorf("%s: dump/load changed the spec hash", s.Name)
		}
	}
}
