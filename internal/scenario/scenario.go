// Package scenario makes the evaluated workload a first-class,
// enumerable axis. The paper evaluates its policy on exactly two
// streaming applications and one 3-core platform; conclusions drawn on
// one topology often invert on another with the same aggregate
// statistics, so this package maps names to self-contained scenarios —
// stream graph + platform + duration + default policy — in one static
// catalogue that holds the two paper workloads alongside synthetic
// families: deep pipelines, fan-out/fan-in graphs, bursty
// phase-shifting load, and many-core platforms built by tiling the
// MPSoC floorplan.
//
// Every builtin is a declarative Spec emitted in Go (builtin.go),
// normalized and hashed once at init into a Scenario; spec files,
// inline service specs and generated workloads become one through
// FromSpec, and Instantiate compiles them all. Construction is
// deterministic: instantiating the same name twice yields identical
// graphs (seeded loads, fixed topology), so experiment results are
// reproducible and comparable across runs.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"thermbal/internal/mpsoc"
	"thermbal/internal/sim"
	"thermbal/internal/stream"
	"thermbal/internal/thermal"
)

// Options carries the per-run knobs a caller may override; zero values
// select the scenario's defaults.
type Options struct {
	// QueueCap overrides the inter-task queue capacity in frames.
	QueueCap int
	// Package selects the thermal package (zero value: mobile-embedded).
	Package thermal.Package
}

// Instance is one instantiated scenario, ready for the simulation
// engine.
type Instance struct {
	// Graph is the finalized stream graph with all tasks placed.
	Graph *stream.Graph
	// Platform is the assembled MPSoC.
	Platform *mpsoc.Platform
	// Modulate is the load modulator, nil for constant-load scenarios.
	Modulate sim.Modulator
}

// Scenario is a named, self-contained experiment setup: a normalized
// Spec plus a short structural label. The spec is the one source of
// every other catalogue fact — name, description, size, default phases,
// policy and delta — and Instantiate compiles it.
// Only FromSpec and the catalogue make one, normalizing and hashing the
// spec there; Hash and Instantiate refuse a literal, so no later layer
// normalizes again.
type Scenario struct {
	Spec
	// Topology is a short structural label ("pipeline depth 8").
	Topology string
	// hash is the SHA-256 hex of the spec's canonical bytes; empty
	// marks a literal.
	hash string
}

// errUnresolved is what Hash and Instantiate return for a literal.
var errUnresolved = errors.New("scenario: not made by FromSpec or the catalogue")

// resolved wraps a normalized spec as a Scenario and hashes its
// canonical serialization; only FromSpec and the catalogue call it.
func resolved(n Spec, topology string) (Scenario, error) {
	b, err := json.Marshal(canonicalSpec{n.SpecVersion, n.Graph, n.Platform, n.Modulation})
	if err != nil {
		return Scenario{}, err
	}
	sum := sha256.Sum256(b)
	return Scenario{Spec: n, Topology: topology, hash: hex.EncodeToString(sum[:])}, nil
}

// Hash returns the content address of the scenario's spec: the SHA-256
// hex of its canonical serialization, shared by every spelling that
// normalizes to the same workload. It never normalizes; the hash was
// computed when the Scenario was made.
func (s Scenario) Hash() (string, error) {
	if s.hash == "" {
		return "", errUnresolved
	}
	return s.hash, nil
}

// Instantiate compiles the scenario with the given options. It is the
// one compiler every scenario goes through — builtins, inline service
// specs, spec files and generated workloads alike. Equal specs compile
// to identical instances.
func (s Scenario) Instantiate(o Options) (*Instance, error) {
	if s.hash == "" {
		return nil, errUnresolved
	}
	inst, err := compile(s.Spec, o)
	if err != nil {
		return nil, fmt.Errorf("scenario: build %q: %w", s.Name, err)
	}
	return inst, nil
}

func (o Options) pkg() thermal.Package {
	if o.Package.Name == "" {
		return thermal.MobileEmbedded()
	}
	return o.Package
}
