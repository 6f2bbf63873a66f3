package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultName is the scenario an empty selection resolves to: the
// paper's benchmark.
const DefaultName = "sdr-radio"

// entry is one builtin: its labels and the constructor of its spec.
type entry struct {
	name, description, topology string
	// cores is the normalized spec's core count, so BuiltinNameForSpec
	// resolves only the builtins a spec can equal.
	cores int
	spec  func() Spec
}

// resolvers[i] resolves catalogue[i] once, on first use, so a process
// pays only for the builtins it touches; resolvedEntries counts them.
var (
	resolvers       [len(catalogue)]func() (Scenario, error)
	resolvedEntries atomic.Int32
)

func init() {
	for i := range catalogue {
		resolvers[i] = sync.OnceValues(catalogue[i].resolve)
	}
}

// resolve labels the entry's spec with the balancing policy by default,
// at ±3 °C unless the spec says otherwise, and normalizes and hashes it
// as FromSpec does a spec file.
func (e entry) resolve() (Scenario, error) {
	resolvedEntries.Add(1)
	sp := e.spec()
	sp.Name, sp.Description = e.name, e.description
	sp.DefaultPolicy = "thermal-balance"
	sp.DefaultDelta = cmp.Or(sp.DefaultDelta, 3)
	n, err := sp.Normalize()
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: builtin %q spec invalid: %w", e.name, err)
	}
	return resolved(n, e.topology)
}

// builtin resolves catalogue[i]. A builtin that does not resolve is a
// bug, which TestCatalogueInvariants catches.
func builtin(i int) Scenario {
	s, err := resolvers[i]()
	if err != nil {
		panic(err)
	}
	return s
}

// all resolves every builtin once, sorted by name.
var all = sync.OnceValue(func() []Scenario {
	out := make([]Scenario, len(resolvers))
	for i := range resolvers {
		out[i] = builtin(i)
	}
	return out
})

// BuiltinNameForSpec reports the builtin scenario whose content hash
// equals sc's, if any, resolving only the builtins with sc's core
// count: the hash covers the platform, so no other builtin can match.
// Callers use it to collapse an inline spec onto the equivalent named
// request so both share one content address.
func BuiltinNameForSpec(sc Scenario) (string, bool) {
	for i, e := range catalogue {
		if e.cores == sc.Platform.Cores && builtin(i).hash == sc.hash {
			return e.name, true
		}
	}
	return "", false
}

// Lookup returns the named scenario, resolving only that builtin.
// Unknown names report the registered alternatives.
func Lookup(name string) (Scenario, error) {
	if i := slices.IndexFunc(catalogue[:], func(e entry) bool { return e.name == name }); i >= 0 {
		return resolvers[i]()
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (registered: %v)", name, Names())
}

// Names returns the builtin scenario names, sorted, from the table
// alone: it resolves nothing.
func Names() []string {
	out := make([]string, len(catalogue))
	for i, e := range catalogue {
		out[i] = e.name
	}
	return out
}

// Info is the JSON-able catalogue entry for one scenario, served by
// the simulation service's /scenarios endpoint and stable on the wire.
// WarmupS/MeasureS of 0 mean "the paper defaults" (chosen by the
// experiment layer).
type Info struct {
	Name          string  `json:"name"`
	Description   string  `json:"description"`
	Topology      string  `json:"topology"`
	Cores         int     `json:"cores"`
	Tasks         int     `json:"tasks"`
	WarmupS       float64 `json:"warmup_s"`
	MeasureS      float64 `json:"measure_s"`
	DefaultPolicy string  `json:"default_policy"`
	DefaultDelta  float64 `json:"default_delta"`
	// SpecVersion is the declarative spec schema version the scenario
	// exports, so clients can feature-detect the spec path before
	// requesting ?spec=1.
	SpecVersion int `json:"spec_version,omitempty"`
}

// Info returns the catalogue entry for the scenario, derived from its
// spec.
func (s Scenario) Info() Info {
	return Info{
		Name:          s.Name,
		Description:   s.Description,
		Topology:      s.Topology,
		Cores:         s.Platform.Cores,
		Tasks:         len(s.Graph.Tasks),
		WarmupS:       s.WarmupS,
		MeasureS:      s.MeasureS,
		DefaultPolicy: s.DefaultPolicy,
		DefaultDelta:  s.DefaultDelta,
		SpecVersion:   s.SpecVersion,
	}
}

// Infos returns the catalogue entries of every builtin scenario, sorted
// by name, resolving every builtin.
func Infos() []Info {
	cat := all()
	out := make([]Info, len(cat))
	for i, s := range cat {
		out[i] = s.Info()
	}
	return out
}

// All returns every builtin scenario sorted by name, resolving every
// builtin.
func All() []Scenario { return slices.Clone(all()) }
