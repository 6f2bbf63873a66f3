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
// Every builtin is a declarative Spec emitted in Go (builtin.go) and
// compiled by Compile, the one path spec files, inline service specs
// and generated workloads take too. Construction is deterministic:
// instantiating the same name twice yields identical graphs (seeded
// loads, fixed topology), so experiment results are reproducible and
// comparable across runs.
package scenario

import (
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
type Scenario struct {
	Spec
	// Topology is a short structural label ("pipeline depth 8").
	Topology string
}

// Instantiate compiles the scenario with the given options.
func (s Scenario) Instantiate(o Options) (*Instance, error) {
	inst, err := Compile(s.Spec, o)
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
