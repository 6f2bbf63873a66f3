package thermal

import (
	"fmt"
	"strings"
)

// Scheme names a time-integration scheme for the RC network.
type Scheme int

const (
	// Euler is the explicit forward-Euler scheme, stable for steps up to
	// min C_i/ΣG_i (the network caches half that as a margin). The
	// default, and the seed behavior bit-for-bit.
	Euler Scheme = iota
	// Expm is exact dense propagation: T' = A·T + B·P + b with
	// A = e^{H·dt} precomputed per distinct span length by
	// scaling-and-squaring and shared, so one matvec pair replaces
	// the whole substep loop with zero truncation error. Spans below a
	// fixed crossover substep via the Euler fallback (see expm.go).
	Expm
)

// schemes lists every scheme in declaration order.
var schemes = [...]Scheme{Euler, Expm}

// String names the scheme as accepted by ParseScheme.
func (s Scheme) String() string {
	if s == Expm {
		return "expm"
	}
	return "euler"
}

// SchemeNames renders every scheme name as "euler | expm": the one
// list flag usage strings and ParseScheme's error quote.
func SchemeNames() string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.String()
	}
	return strings.Join(names, " | ")
}

// ParseScheme parses a scheme name (as printed by String, plus common
// short forms).
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "euler", "":
		return Euler, nil
	case "expm", "exp", "exact":
		return Expm, nil
	}
	return Euler, fmt.Errorf("thermal: unknown integrator %q (want %s)", name, SchemeNames())
}

// Integrator advances the temperature state of an RC network. An
// integrator may keep scratch buffers and controller state between
// calls, so one instance must not be shared across networks that step
// concurrently.
type Integrator interface {
	// Name identifies the scheme in reports.
	Name() string
	// MaxStep returns the largest single substep the scheme takes on the
	// network described by v (its stability bound).
	MaxStep(v View) float64
	// Advance integrates temps (in place, °C) forward by dt seconds
	// under the constant per-node power injection, substepping as
	// needed. dt is finite and non-negative, and len(temps) ==
	// len(power) == v.NumNodes(); the Network validates before
	// delegating.
	Advance(v View, temps []float64, dt float64, power []float64)
}

// NewIntegrator builds the integrator of scheme s.
func NewIntegrator(s Scheme) Integrator {
	if s == Expm {
		return &expmIntegrator{}
	}
	return &eulerIntegrator{}
}

// View is a read-only sparse description of a Network: node count,
// capacitances, adjacency and the cached stability data. Each scheme
// evaluates C_i·dT_i/dt = P_i + Σ_j G_ij·(T_j − T_i) + AmbientG_i·(Tamb − T_i)
// in its own form: Euler per edge (euler.go), expm as a dense H (expm.go).
type View struct {
	n *Network
}

// NumNodes returns the node count.
func (v View) NumNodes() int { return len(v.n.nodes) }

// Capacitance returns the heat capacity of node i in J/K.
func (v View) Capacitance(i int) float64 { return v.n.nodes[i].Capacitance }

// AmbientG returns node i's direct conductance to ambient in W/K.
func (v View) AmbientG(i int) float64 { return v.n.nodes[i].AmbientG }

// Ambient returns the ambient temperature in °C.
func (v View) Ambient() float64 { return v.n.ambient }

// SumG returns the total conductance out of node i (edges + ambient).
func (v View) SumG(i int) float64 { return v.n.sumG[i] }

// Neighbors returns node i's adjacency list. The slice is shared with
// the network and must not be modified.
func (v View) Neighbors(i int) []Adj { return v.n.adj[i] }

// EulerMaxStep returns the cached stable explicit-Euler step (half of
// min C_i/ΣG_i). Stability bounds of other schemes scale from it.
func (v View) EulerMaxStep() float64 { return v.n.maxStep }
