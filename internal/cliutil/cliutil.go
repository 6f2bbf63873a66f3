// Package cliutil holds the flag helpers only the two CLIs (thermsim,
// figures) need: the -scenario / -scenario-file pair with its
// file-path hint, -dump-spec, -list, the -matrix axes and -deltas.
// Every spelling a request carries resolves in internal/request, which
// the service shares; this package adds only what reads files or
// formats for a terminal, so both binaries print the same catalogue and
// the flag handling is testable without driving main().
package cliutil

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"thermbal/internal/policy"
	"thermbal/internal/request"
	"thermbal/internal/scenario"
)

// ResolveScenario resolves a -scenario flag value like
// request.LookupScenario, except that an unknown name which is an
// existing file path gets a pointer to -scenario-file: the user almost
// certainly meant that flag, and a Levenshtein suggestion would only
// mislead.
func ResolveScenario(name string) (scenario.Scenario, error) {
	sc, err := request.LookupScenario(name)
	if err != nil {
		if fi, statErr := os.Stat(name); statErr == nil && !fi.IsDir() {
			return scenario.Scenario{}, fmt.Errorf("unknown scenario %q names an existing file — pass spec files with -scenario-file", name)
		}
	}
	return sc, err
}

// readSpec reads and strictly decodes a scenario spec file: unknown
// fields and trailing data are errors, so a typo'd key can never
// silently select a default.
func readSpec(path string) (*scenario.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario spec: %w", err)
	}
	var sp scenario.Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario spec %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario spec %s: trailing data after JSON document", path)
	}
	return &sp, nil
}

// LoadSpec reads a scenario spec file and resolves it through
// scenario.FromSpec, its one normalization.
func LoadSpec(path string) (scenario.Scenario, error) {
	sp, err := readSpec(path)
	if err != nil {
		return scenario.Scenario{}, err
	}
	sc, err := scenario.FromSpec(*sp)
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("scenario spec %s: %w", path, err)
	}
	return sc, nil
}

// ResolveScenarioArg resolves the -scenario / -scenario-file flag pair
// every CLI shares: exactly one source wins, a file loads through
// LoadSpec, a name resolves through the catalogue.
func ResolveScenarioArg(name, file string) (scenario.Scenario, error) {
	if file == "" {
		return ResolveScenario(name)
	}
	if name != "" {
		return scenario.Scenario{}, fmt.Errorf("-scenario and -scenario-file are mutually exclusive")
	}
	return LoadSpec(file)
}

// SpecArg checks the -scenario / -scenario-file flag pair every CLI
// shares for a request. A file alone returns its decoded spec, not yet
// normalized: the request's canonicalization does that, once. Any
// other pair returns nil, with ResolveScenarioArg's verdict on it (a
// name must be in the catalogue; a name and a file are refused).
func SpecArg(name, file string) (*scenario.Spec, error) {
	if file == "" || name != "" {
		_, err := ResolveScenarioArg(name, file)
		return nil, err
	}
	return readSpec(file)
}

// SpecJSON renders a scenario's declarative spec as indented JSON (for
// -dump-spec).
func SpecJSON(sc scenario.Scenario) ([]byte, error) {
	out, err := json.MarshalIndent(sc.Spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ScenarioName is the name a report header prints for a scenario: a
// spec file that names none reads "custom-spec".
func ScenarioName(sc scenario.Scenario) string { return cmp.Or(sc.Name, "custom-spec") }

// MatrixAxis splits a -scenario or -policy flag value into one axis
// of a request.MatrixRequest: "" or "all" is the empty axis (every
// registered name), anything else a comma-separated list of names or
// aliases that canonicalization resolves.
func MatrixAxis(spec string) []string {
	if spec == "" || spec == "all" {
		return nil
	}
	return strings.Split(spec, ",")
}

// ParseDeltas parses a comma-separated -deltas flag value; empty input
// returns nil (caller applies its default sweep). Every sweep figure
// runs the threshold policies, which need a positive finite delta, so
// any other value is refused here, before anything runs.
func ParseDeltas(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad delta %q: %w", p, err)
		}
		if !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("threshold delta %g is not positive and finite", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// ListText renders the -list discovery output: the scenario catalogue
// and the policy table.
func ListText() string {
	var b strings.Builder
	b.WriteString("Registered scenarios:\n")
	fmt.Fprintf(&b, "  %-14s %-6s %-6s %-38s %s\n", "name", "cores", "tasks", "topology", "description")
	for _, s := range scenario.Infos() {
		fmt.Fprintf(&b, "  %-14s %-6d %-6d %-38s %s\n", s.Name, s.Cores, s.Tasks, s.Topology, s.Description)
	}
	b.WriteString("\nRegistered policies:\n")
	for _, e := range policy.Entries() {
		alias := ""
		if len(e.Aliases) > 0 {
			alias = " (aliases: " + strings.Join(e.Aliases, ", ") + ")"
		}
		fmt.Fprintf(&b, "  %-16s %s%s\n", e.Name, e.Description, alias)
	}
	return b.String()
}
