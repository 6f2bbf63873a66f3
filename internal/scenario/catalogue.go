package scenario

import (
	"fmt"
	"slices"
	"strings"
)

// DefaultName is the scenario an empty selection resolves to: the
// paper's benchmark.
const DefaultName = "sdr-radio"

// catalogue holds every builtin scenario, sorted by name. bySpec maps
// each builtin's content hash to its name, so an inline spec identical
// to a builtin resolves to the same content address the named request
// would. Both are fixed at package init.
var catalogue, bySpec = builtinCatalogue()

// builtinCatalogue normalizes and hashes every builtin, as FromSpec
// does a spec file, indexes it by hash and sorts the catalogue by name.
// Failing at init beats a catalogue entry that only errors at run time.
func builtinCatalogue() ([]Scenario, map[string]string) {
	cat := builtins()
	hashes := make(map[string]string, len(cat))
	for i, b := range cat {
		n, err := b.Normalize()
		if err == nil {
			cat[i], err = resolved(n, b.Topology)
		}
		if err != nil {
			panic(fmt.Sprintf("scenario: builtin %q spec invalid: %v", b.Name, err))
		}
		hashes[cat[i].hash] = n.Name
	}
	slices.SortFunc(cat, func(a, b Scenario) int { return strings.Compare(a.Name, b.Name) })
	return cat, hashes
}

// BuiltinNameForSpec reports the builtin scenario whose content hash
// (Scenario.Hash) is hash, if any. Callers use it to collapse an inline
// spec onto the equivalent named request so both share one content
// address.
func BuiltinNameForSpec(hash string) (string, bool) {
	name, ok := bySpec[hash]
	return name, ok
}

// Lookup returns the named scenario. Unknown names report the
// registered alternatives.
func Lookup(name string) (Scenario, error) {
	for _, s := range catalogue {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (registered: %v)", name, Names())
}

// Names returns the builtin scenario names, sorted.
func Names() []string {
	out := make([]string, len(catalogue))
	for i, s := range catalogue {
		out[i] = s.Name
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
// by name.
func Infos() []Info {
	out := make([]Info, len(catalogue))
	for i, s := range catalogue {
		out[i] = s.Info()
	}
	return out
}

// All returns every builtin scenario sorted by name.
func All() []Scenario { return slices.Clone(catalogue) }
