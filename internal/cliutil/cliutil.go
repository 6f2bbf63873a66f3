// Package cliutil is the shared flag-parsing layer of the two CLIs
// (thermsim, figures), whose name resolution the service's request
// canonicalization also uses: scenario and policy resolution against
// the registries, package and delta parsing, and the -list discovery
// output. Keeping it in one place means every binary accepts the same
// spellings and prints the same catalogue — and the parsing is testable
// without driving main(). Only the CLI-side resolvers (ResolveScenario,
// ResolveScenarioArg, LoadSpec) touch the filesystem.
package cliutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	_ "thermbal/internal/core" // register the thermal-balance policy
	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/thermal"
)

// Suggest returns the candidate closest to name in edit distance, or
// "" when nothing is close enough to be a plausible typo. The
// threshold scales with the input length so short names only match
// near-exact spellings. Ties go to the lexicographically first
// candidate, keeping the suggestion deterministic.
func Suggest(name string, candidates []string) string {
	max := 1 + len(name)/4
	best, bestDist := "", max+1
	sorted := append([]string(nil), candidates...)
	sort.Strings(sorted)
	for _, c := range sorted {
		if d := editDistance(name, c); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// unknownNameError builds the error for an unresolvable name: the
// did-you-mean suggestion when one was found ("" for none), always
// followed by the sorted known-name list.
func unknownNameError(kind, name, suggestion string, known []string) error {
	plural := kind + "s"
	if strings.HasSuffix(kind, "y") {
		plural = strings.TrimSuffix(kind, "y") + "ies"
	}
	sorted := append([]string(nil), known...)
	sort.Strings(sorted)
	if suggestion != "" {
		return fmt.Errorf("unknown %s %q (did you mean %q?; known %s: %s)",
			kind, name, suggestion, plural, strings.Join(sorted, ", "))
	}
	return fmt.Errorf("unknown %s %q (known %s: %s)",
		kind, name, plural, strings.Join(sorted, ", "))
}

// LookupScenario resolves a scenario name against the registry alone.
// An empty name selects the paper's SDR benchmark; unknown names get a
// did-you-mean suggestion plus the full catalogue. It never touches the
// filesystem, so a server can answer any client with it.
func LookupScenario(name string) (scenario.Scenario, error) {
	if name == "" {
		name = scenario.DefaultName
	}
	sc, err := scenario.Lookup(name)
	if err != nil {
		return scenario.Scenario{}, unknownNameError("scenario", name, Suggest(name, scenario.Names()), scenario.Names())
	}
	return sc, nil
}

// ResolveScenario resolves a -scenario flag value like LookupScenario,
// except that an unknown name which is an existing file path gets a
// pointer to -scenario-file: the user almost certainly meant that flag,
// and a Levenshtein suggestion would only mislead.
func ResolveScenario(name string) (scenario.Scenario, error) {
	sc, err := LookupScenario(name)
	if err != nil {
		if fi, statErr := os.Stat(name); statErr == nil && !fi.IsDir() {
			return scenario.Scenario{}, fmt.Errorf("unknown scenario %q names an existing file — pass spec files with -scenario-file", name)
		}
	}
	return sc, err
}

// LoadSpec reads and strictly decodes a scenario spec file: unknown
// fields, trailing data and validation failures are all errors, so a
// typo'd key can never silently select a default. The returned spec is
// normalized (defaults explicit).
func LoadSpec(path string) (scenario.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("scenario spec: %w", err)
	}
	var sp scenario.Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return scenario.Spec{}, fmt.Errorf("scenario spec %s: %w", path, err)
	}
	if dec.More() {
		return scenario.Spec{}, fmt.Errorf("scenario spec %s: trailing data after JSON document", path)
	}
	n, err := sp.Normalize()
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("scenario spec %s: %w", path, err)
	}
	return n, nil
}

// ResolveScenarioArg resolves the -scenario / -scenario-file flag pair
// every CLI shares: exactly one source wins, a file loads and compiles
// through the spec path, a name resolves through the registry. The
// returned spec is non-nil exactly when a file was given.
func ResolveScenarioArg(name, file string) (scenario.Scenario, *scenario.Spec, error) {
	if file == "" {
		sc, err := ResolveScenario(name)
		return sc, nil, err
	}
	if name != "" {
		return scenario.Scenario{}, nil, fmt.Errorf("-scenario and -scenario-file are mutually exclusive")
	}
	sp, err := LoadSpec(file)
	if err != nil {
		return scenario.Scenario{}, nil, err
	}
	sc, err := scenario.FromSpec(sp)
	if err != nil {
		return scenario.Scenario{}, nil, err
	}
	return sc, &sp, nil
}

// SpecJSON renders a scenario's declarative spec as indented JSON (for
// -dump-spec). Scenarios without a spec form report an error naming
// the scenario.
func SpecJSON(sc scenario.Scenario) ([]byte, error) {
	if sc.Spec == nil {
		return nil, fmt.Errorf("scenario %q has no declarative spec", sc.Name)
	}
	out, err := json.MarshalIndent(sc.Spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ResolvePolicy resolves a -policy flag value (canonical name or alias)
// to the canonical registered name. Unknown names get a did-you-mean
// suggestion (matched against canonical names and aliases, reported as
// the canonical name) plus the registered-name list.
func ResolvePolicy(name string) (string, error) {
	canon, ok := policy.Canonical(name)
	if !ok {
		spellings := policy.Names()
		for _, e := range policy.Entries() {
			spellings = append(spellings, e.Aliases...)
		}
		s := Suggest(name, spellings)
		if c, ok := policy.Canonical(s); ok {
			s = c
		}
		return "", unknownNameError("policy", name, s, policy.Names())
	}
	return canon, nil
}

// MatrixAxis splits a -scenario or -policy flag value into one axis
// of a service.MatrixRequest: "" or "all" is the empty axis (every
// registered name), anything else a comma-separated list of names or
// aliases that canonicalization resolves.
func MatrixAxis(spec string) []string {
	if spec == "" || spec == "all" {
		return nil
	}
	return strings.Split(spec, ",")
}

// ParsePackage resolves a -package flag value.
func ParsePackage(name string) (experiment.PackageSel, error) {
	switch name {
	case "mobile", "embedded", "mobile-embedded":
		return experiment.Mobile, nil
	case "highperf", "high-performance", "hp":
		return experiment.HighPerf, nil
	default:
		return experiment.Mobile, fmt.Errorf("unknown package %q (mobile | highperf)", name)
	}
}

// ParseIntegrator resolves a -integrator flag value.
func ParseIntegrator(name string) (thermal.Config, error) {
	scheme, err := thermal.ParseScheme(name)
	if err != nil {
		return thermal.Config{}, err
	}
	return thermal.Config{Scheme: scheme}, nil
}

// ParseDeltas parses a comma-separated -deltas flag value; empty input
// returns nil (caller applies its default sweep).
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
		out = append(out, v)
	}
	return out, nil
}

// ListText renders the -list discovery output: the scenario catalogue
// and the policy registry.
func ListText() string {
	var b strings.Builder
	b.WriteString("Registered scenarios:\n")
	fmt.Fprintf(&b, "  %-14s %-6s %-6s %-38s %s\n", "name", "cores", "tasks", "topology", "description")
	for _, s := range scenario.All() {
		fmt.Fprintf(&b, "  %-14s %-6d %-6d %-38s %s\n", s.Name, s.Cores, s.Tasks, s.Topology, s.Description)
	}
	b.WriteString("\nRegistered policies:\n")
	entries := policy.Entries()
	for _, e := range entries {
		alias := ""
		if len(e.Aliases) > 0 {
			a := append([]string(nil), e.Aliases...)
			sort.Strings(a)
			alias = " (aliases: " + strings.Join(a, ", ") + ")"
		}
		fmt.Fprintf(&b, "  %-16s %s%s\n", e.Name, e.Description, alias)
	}
	return b.String()
}
