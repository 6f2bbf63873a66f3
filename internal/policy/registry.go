package policy

import (
	"fmt"
	"slices"
)

// The policy table maps names to constructors so policies are built
// from one place instead of string switches duplicated across the CLIs:
// the two baselines, the paper's thermal balancer and the do-nothing
// reference.

// Args carries the tunables a policy constructor may consume. Policies
// ignore fields that do not apply to them (the energy-balance baseline
// takes no run-time parameters at all).
type Args struct {
	// Delta is the threshold distance from the mean temperature (°C).
	Delta float64
	// MinInterval is the minimum time between issued migrations (s).
	// Zero selects the policy's default.
	MinInterval float64
	// TopK bounds the per-core task subset a balancer considers.
	// Zero selects the policy's default.
	TopK int
	// MaxFreezeS is the QoS freeze budget for migrations (s).
	// Zero selects the policy's default.
	MaxFreezeS float64
}

// Entry describes one policy for discovery listings. It is also the
// JSON shape the simulation service's /policies endpoint serves, so the
// field names are wire-stable.
type Entry struct {
	// Name is the canonical name.
	Name string `json:"name"`
	// Description is a one-line summary for -list output.
	Description string `json:"description"`
	// Aliases are accepted alternative spellings, sorted.
	Aliases []string `json:"aliases,omitempty"`
}

// table lists every policy, sorted by name. A constructor returns a
// fresh value on every call, so concurrent runs never share trigger
// state.
var table = []struct {
	Entry
	build func(Args) (Policy, error)
}{
	{Entry{"energy-balance", "static energy-balanced mapping + DVFS, no run-time actions", []string{"eb"}},
		func(Args) (Policy, error) { return EnergyBalance{}, nil }},
	{Entry{"none", "do nothing: pure DVFS on the static mapping", nil},
		func(Args) (Policy, error) { return None{}, nil }},
	{Entry{"stop-go", "gate a core at mean+delta, restart at the stop-time mean-delta", []string{"sg", "stop&go", "stopgo"}},
		func(a Args) (Policy, error) {
			if a.Delta <= 0 {
				return nil, fmt.Errorf("policy: stop-go requires a positive delta, got %g", a.Delta)
			}
			return NewStopGo(a.Delta), nil
		}},
	{Entry{"thermal-balance", "the paper's migration-based thermal balancing (MiGra-style)", []string{"migra", "tb"}},
		func(a Args) (Policy, error) {
			if a.Delta <= 0 {
				return nil, fmt.Errorf("policy: thermal-balance requires a positive delta, got %g", a.Delta)
			}
			return NewBalancer(BalancerParams{
				Delta:       a.Delta,
				MinInterval: a.MinInterval,
				TopK:        a.TopK,
				MaxFreezeS:  a.MaxFreezeS,
			}), nil
		}},
}

// find returns the table index of a canonical name or alias.
func find(name string) (int, bool) {
	for i, t := range table {
		if t.Name == name || slices.Contains(t.Aliases, name) {
			return i, true
		}
	}
	return 0, false
}

// Canonical resolves a name or alias to the canonical name.
func Canonical(name string) (string, bool) {
	i, ok := find(name)
	if !ok {
		return "", false
	}
	return table[i].Name, true
}

// New constructs a policy by name (canonical or alias). Unknown names
// report the registered alternatives.
func New(name string, a Args) (Policy, error) {
	i, ok := find(name)
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %v)", name, Names())
	}
	return table[i].build(a)
}

// Names returns the canonical names, sorted.
func Names() []string {
	out := make([]string, len(table))
	for i, t := range table {
		out[i] = t.Name
	}
	return out
}

// Entries returns every policy's entry sorted by name, so listings and
// JSON encodings are deterministic.
func Entries() []Entry {
	out := make([]Entry, len(table))
	for i, t := range table {
		out[i] = t.Entry
	}
	return out
}
