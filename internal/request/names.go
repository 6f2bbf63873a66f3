package request

import (
	"fmt"
	"sort"
	"strings"

	"thermbal/internal/experiment"
	"thermbal/internal/migrate"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
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
// followed by the sorted known-name list under the plural heading.
func unknownNameError(kind, plural, name, suggestion string, known []string) error {
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
		return scenario.Scenario{}, unknownNameError("scenario", "scenarios", name, Suggest(name, scenario.Names()), scenario.Names())
	}
	return sc, nil
}

// ResolvePolicy resolves a policy spelling (canonical name or alias)
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
		return "", unknownNameError("policy", "policies", name, s, policy.Names())
	}
	return canon, nil
}

// ParsePackage resolves a thermal-package spelling; empty selects the
// mobile package.
func ParsePackage(name string) (experiment.PackageSel, error) {
	switch name {
	case "", "mobile", "embedded", "mobile-embedded":
		return experiment.Mobile, nil
	case "highperf", "high-performance", "hp":
		return experiment.HighPerf, nil
	default:
		return experiment.Mobile, fmt.Errorf("unknown package %q (mobile | highperf)", name)
	}
}

// ParseMechanism resolves a migration-mechanism spelling; empty
// selects task replication.
func ParseMechanism(name string) (migrate.Mechanism, error) {
	switch name {
	case "", "replication", "task-replication":
		return migrate.Replication, nil
	case "recreation", "task-recreation":
		return migrate.Recreation, nil
	}
	return migrate.Replication, fmt.Errorf("unknown mechanism %q (task-replication | task-recreation)", name)
}
