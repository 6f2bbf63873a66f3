// Package thermal implements a lumped-RC thermal model of an MPSoC die
// and its package, equivalent to the block-level HotSpot model the
// paper's emulation framework uses on the host PC.
//
// Every floorplan block becomes a silicon node; each silicon node has a
// vertical conduction path through a per-block package node down to a
// common board/sink node, which convects to ambient. Lateral heat
// spreading between adjacent blocks is proportional to the length of
// their shared edge (Fourier conduction through the die cross-section).
//
// Two Package presets reproduce the paper's two evaluation targets: a
// mobile-embedded package with slow, seconds-scale dynamics, and a
// high-performance package whose temperature variations are 6x faster
// (paper Section 4).
package thermal

import (
	"errors"
	"fmt"
	"math"
)

// Node is one thermal capacitance in the RC network.
type Node struct {
	// Name identifies the node ("core1", "pkg:core1", "board", ...).
	Name string
	// Capacitance is the heat capacity in J/K.
	Capacitance float64
	// AmbientG is the direct conductance to ambient in W/K (0 for
	// internal nodes).
	AmbientG float64
}

// edge is a conductance between two nodes.
type edge struct {
	a, b int
	g    float64 // W/K
}

// Network is an RC thermal network with fixed topology and mutable state
// (node temperatures). It is not safe for concurrent use.
type Network struct {
	nodes []Node
	edges []edge
	// adj[i] lists (neighbor, conductance) pairs for node i.
	adj [][]Adj

	// temp is the current temperature of each node in °C.
	temp []float64
	// ambient temperature in °C.
	ambient float64

	// sumG[i] caches the total conductance out of node i (edges +
	// ambient), used for the stability bound.
	sumG []float64
	// maxStep caches the largest stable explicit-Euler step.
	maxStep float64

	// integ advances the state; explicit Euler unless SetIntegrator.
	integ Integrator
}

// Adj is one (neighbor, conductance) entry of a node's adjacency list.
type Adj struct {
	// Node is the neighbor's index.
	Node int
	// G is the conductance to that neighbor in W/K.
	G float64
}

// Builder incrementally assembles a Network.
type Builder struct {
	nodes []Node
	edges []edge
	index map[string]int
	err   error
}

// NewBuilder returns an empty network builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[string]int)}
}

// AddNode adds a node and returns its index. Errors are deferred to Build.
func (b *Builder) AddNode(name string, capacitance, ambientG float64) int {
	if b.err != nil {
		return -1
	}
	if name == "" {
		b.err = errors.New("thermal: empty node name")
		return -1
	}
	if _, dup := b.index[name]; dup {
		b.err = fmt.Errorf("thermal: duplicate node %q", name)
		return -1
	}
	if capacitance <= 0 {
		b.err = fmt.Errorf("thermal: node %q has non-positive capacitance %g", name, capacitance)
		return -1
	}
	if ambientG < 0 {
		b.err = fmt.Errorf("thermal: node %q has negative ambient conductance", name)
		return -1
	}
	b.index[name] = len(b.nodes)
	b.nodes = append(b.nodes, Node{Name: name, Capacitance: capacitance, AmbientG: ambientG})
	return len(b.nodes) - 1
}

// Connect adds a conductance g (W/K) between nodes a and b.
func (b *Builder) Connect(a, bn int, g float64) {
	if b.err != nil {
		return
	}
	if a < 0 || a >= len(b.nodes) || bn < 0 || bn >= len(b.nodes) {
		b.err = fmt.Errorf("thermal: connect out of range (%d,%d)", a, bn)
		return
	}
	if a == bn {
		b.err = fmt.Errorf("thermal: self-connection on node %d", a)
		return
	}
	if g <= 0 {
		b.err = fmt.Errorf("thermal: non-positive conductance %g between %d and %d", g, a, bn)
		return
	}
	b.edges = append(b.edges, edge{a: a, b: bn, g: g})
}

// Build finalizes the network with all nodes at the given ambient
// temperature.
func (b *Builder) Build(ambientC float64) (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.nodes) == 0 {
		return nil, errors.New("thermal: no nodes")
	}
	n := &Network{
		nodes:   append([]Node(nil), b.nodes...),
		edges:   append([]edge(nil), b.edges...),
		ambient: ambientC,
		temp:    make([]float64, len(b.nodes)),
		sumG:    make([]float64, len(b.nodes)),
		adj:     make([][]Adj, len(b.nodes)),
		integ:   newEuler(),
	}
	for i := range n.temp {
		n.temp[i] = ambientC
		n.sumG[i] = n.nodes[i].AmbientG
	}
	for _, e := range n.edges {
		n.adj[e.a] = append(n.adj[e.a], Adj{Node: e.b, G: e.g})
		n.adj[e.b] = append(n.adj[e.b], Adj{Node: e.a, G: e.g})
		n.sumG[e.a] += e.g
		n.sumG[e.b] += e.g
	}
	// Largest stable explicit-Euler step: dt < min_i C_i / sumG_i.
	// Use half that for a comfortable margin.
	n.maxStep = math.Inf(1)
	for i := range n.nodes {
		if n.sumG[i] <= 0 {
			continue // isolated node: any step is stable
		}
		if s := n.nodes[i].Capacitance / n.sumG[i]; s < n.maxStep {
			n.maxStep = s
		}
	}
	n.maxStep *= 0.5
	if math.IsInf(n.maxStep, 1) {
		return nil, errors.New("thermal: network has no conductances")
	}
	return n, nil
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Temperature returns the current temperature of node i in °C.
func (n *Network) Temperature(i int) float64 { return n.temp[i] }

// Temperatures copies all node temperatures into dst (allocating if nil).
func (n *Network) Temperatures(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(n.temp))
	}
	copy(dst, n.temp)
	return dst
}

// SetTemperature overrides the temperature of node i (initialisation and
// testing).
func (n *Network) SetTemperature(i int, tC float64) { n.temp[i] = tC }

// View returns a read-only sparse description of the network (nodes,
// adjacency, capacitances) for integrators. The view stays valid for the
// network's lifetime; the topology it describes never changes.
func (n *Network) View() View { return View{n: n} }

// SetIntegrator replaces the time-integration scheme. A nil argument is
// ignored. Integrators carry scratch state and must not be shared
// between networks stepped concurrently.
func (n *Network) SetIntegrator(ig Integrator) {
	if ig != nil {
		n.integ = ig
	}
}

// Integrator returns the active integration scheme.
func (n *Network) Integrator() Integrator { return n.integ }

// Step advances the network by dt seconds with the given per-node power
// injection (watts; len(power) must equal NumNodes, missing entries are
// an error). The integrator substeps internally to remain numerically
// stable, so dt may be arbitrarily large.
func (n *Network) Step(dt float64, power []float64) error {
	if len(power) != len(n.nodes) {
		return fmt.Errorf("thermal: power vector has %d entries, want %d", len(power), len(n.nodes))
	}
	if dt < 0 {
		return fmt.Errorf("thermal: negative step %g", dt)
	}
	n.integ.Advance(n.View(), n.temp, dt, power)
	return nil
}

// SteadyState solves for the equilibrium temperatures under the given
// constant power vector, without disturbing the current state. The
// network must be connected to ambient (directly or transitively) for a
// solution to exist.
func (n *Network) SteadyState(power []float64) ([]float64, error) {
	if len(power) != len(n.nodes) {
		return nil, fmt.Errorf("thermal: power vector has %d entries, want %d", len(power), len(n.nodes))
	}
	// Assemble G·T = P + Gamb·Tamb and solve by Gaussian elimination
	// with partial pivoting. N is small (tens of nodes).
	nn := len(n.nodes)
	a := make([][]float64, nn)
	for i := range a {
		a[i] = make([]float64, nn+1)
	}
	for i := 0; i < nn; i++ {
		diag := n.nodes[i].AmbientG
		for _, adj := range n.adj[i] {
			diag += adj.G
			a[i][adj.Node] -= adj.G
		}
		a[i][i] += diag
		a[i][nn] = power[i] + n.nodes[i].AmbientG*n.ambient
	}
	sol, err := solveLinear(a)
	if err != nil {
		return nil, fmt.Errorf("thermal: steady state: %w", err)
	}
	return sol, nil
}

// SettleToSteadyState sets the current temperatures to the equilibrium
// for the given power vector.
func (n *Network) SettleToSteadyState(power []float64) error {
	sol, err := n.SteadyState(power)
	if err != nil {
		return err
	}
	copy(n.temp, sol)
	return nil
}

// solveLinear solves the augmented system a (n rows of n+1 columns)
// in place, returning the solution vector.
func solveLinear(a [][]float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-18 {
			return nil, errors.New("singular conductance matrix (node not connected to ambient?)")
		}
		a[col], a[piv] = a[piv], a[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := a[r][n]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// TotalHeatContent returns sum_i C_i·(T_i - ambient), the stored thermal
// energy relative to ambient in joules. Useful for conservation checks.
func (n *Network) TotalHeatContent() float64 {
	var e float64
	for i, nd := range n.nodes {
		e += nd.Capacitance * (n.temp[i] - n.ambient)
	}
	return e
}

// AmbientOutflow returns the instantaneous heat flow to ambient in watts
// at the current temperatures.
func (n *Network) AmbientOutflow() float64 {
	var q float64
	for i, nd := range n.nodes {
		q += nd.AmbientG * (n.temp[i] - n.ambient)
	}
	return q
}
