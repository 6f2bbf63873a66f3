package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"thermbal/internal/floorplan"
)

// nodeDeriv is the node-major right-hand side the seed scheme
// evaluated, built on View's exported accessors: for each node, its
// power plus g·(T_j − T_i) over its adjacency list in order, plus the
// ambient term, over its capacitance. Every product is rounded on its
// own (no fused multiply-add), as in the kernel.
func nodeDeriv(v View, temps, power, dst []float64) {
	for i := range dst {
		q := power[i]
		ti := temps[i]
		for _, a := range v.Neighbors(i) {
			q += float64(a.G * (temps[a.Node] - ti))
		}
		q += float64(v.AmbientG(i) * (v.Ambient() - ti))
		dst[i] = q / v.Capacitance(i)
	}
}

// nodeEulerAdvance is the seed explicit-Euler substep loop on
// nodeDeriv: the oracle the edge-form kernel must match bit for bit.
func nodeEulerAdvance(v View, temps []float64, dt float64, power []float64) {
	d := make([]float64, len(temps))
	for dt > 0 {
		h := dt
		if h > v.EulerMaxStep() {
			h = v.EulerMaxStep()
		}
		nodeDeriv(v, temps, power, d)
		for i := range temps {
			temps[i] += float64(h * d[i])
		}
		dt -= h
	}
}

// oracleSpans are the step lengths the oracle comparisons cycle
// through: the 10 ms sensor period, spans that end on a partial
// substep, and an empty one.
var oracleSpans = []float64{10e-3, 3.7e-3, 10e-3, 0, 25e-3}

// checkEulerMatchesOracle steps net with the edge-form kernel and a
// copy of its state with nodeEulerAdvance for the given periods, under
// power vectors from powerAt, and fails at the first period whose
// temperatures differ in any bit.
func checkEulerMatchesOracle(t *testing.T, net *Network, periods int, powerAt func(period int) []float64) {
	t.Helper()
	net.SetIntegrator(NewIntegrator(Euler))
	ref := net.Temperatures(nil)
	for p := 0; p < periods; p++ {
		dt := oracleSpans[p%len(oracleSpans)]
		power := powerAt(p)
		if err := net.Step(dt, power); err != nil {
			t.Fatal(err)
		}
		nodeEulerAdvance(net.View(), ref, dt, power)
		if i, ok := sameBits(net.temp, ref); !ok {
			t.Fatalf("period %d: node %d edge form %v (%#x), node form %v (%#x)", p, i,
				net.temp[i], math.Float64bits(net.temp[i]), ref[i], math.Float64bits(ref[i]))
		}
	}
}

// builtinDieCores lists the core counts of the builtin scenarios'
// dies: the paper's 3-core die and the manycore-N tilings.
var builtinDieCores = []int{3, 8, 16, 32, 64, 128, 256}

// The edge-form kernel must reproduce the node-form seed scheme bit for
// bit on every builtin die under both packages, from ambient (where
// every neighbour pair starts at equal temperatures) through a
// changing power profile.
func TestEulerEdgeFormMatchesNodeOracle(t *testing.T) {
	for _, cores := range builtinDieCores {
		for _, pkg := range []struct {
			name string
			pkg  Package
		}{{"mobile", MobileEmbedded()}, {"highperf", HighPerformance()}} {
			t.Run(fmt.Sprintf("cores=%d/%s", cores, pkg.name), func(t *testing.T) {
				m, err := NewModel(floorplan.StreamingMPSoC(cores), pkg.pkg)
				if err != nil {
					t.Fatal(err)
				}
				n := m.Net.NumNodes()
				checkEulerMatchesOracle(t, m.Net, 100, func(p int) []float64 {
					power := make([]float64, n)
					for i := range m.FP.Blocks {
						power[i] = 0.05 * float64((i+p)%9)
					}
					return power
				})
			})
		}
	}
}

// randomOracleNetwork builds a seeded random network: some nodes with
// no ambient conductance, parallel edges between one pair, and
// endpoints in either order. Several nodes start at one shared
// temperature, so neighbour differences of exactly zero occur.
func randomOracleNetwork(t *testing.T, rng *rand.Rand) *Network {
	t.Helper()
	nodes := 2 + rng.Intn(40)
	b := NewBuilder()
	for i := 0; i < nodes; i++ {
		ambG := 0.0
		if rng.Intn(3) == 0 {
			ambG = 0.01 + 0.5*rng.Float64()
		}
		b.AddNode(fmt.Sprintf("n%d", i), 0.001+rng.Float64(), ambG)
	}
	for i := 1; i < nodes; i++ {
		b.Connect(rng.Intn(i), i, 0.01+rng.Float64()) // spanning tree
	}
	for k := rng.Intn(2 * nodes); k > 0; k-- {
		a, c := rng.Intn(nodes), rng.Intn(nodes)
		if a != c {
			b.Connect(a, c, 0.01+rng.Float64())
		}
	}
	b.Connect(1, 0, 0.3) // parallel to the tree edge 0–1
	ambients := []float64{25, 0, -10.5}
	net, err := b.Build(ambients[rng.Intn(len(ambients))])
	if err != nil {
		t.Fatal(err)
	}
	shared := 40 + rng.Float64()
	for i := 0; i < nodes; i++ {
		if rng.Intn(2) == 0 {
			net.SetTemperature(i, shared)
		}
	}
	return net
}

// The edge-form kernel must match the node-form oracle bit for bit on
// seeded random networks too, under power vectors mixing positive,
// +0 and −0 entries.
func TestEulerEdgeFormMatchesNodeOracleRandom(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := randomOracleNetwork(t, rng)
		n := net.NumNodes()
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkEulerMatchesOracle(t, net, 100, func(int) []float64 {
				power := make([]float64, n)
				for i := range power {
					switch rng.Intn(3) {
					case 0:
						power[i] = rng.Float64()
					case 1:
						power[i] = negZero
					}
				}
				return power
			})
		})
	}
}

// The kernel's bit-identity with the node form rests on Build storing
// each node's adjacency in the order of the edges that touch it: the
// edge pass then adds every node's terms in the node form's order.
func TestBuildAdjacencyFollowsEdgeOrder(t *testing.T) {
	nets := map[string]*Network{}
	for _, cores := range builtinDieCores {
		m, err := NewModel(floorplan.StreamingMPSoC(cores), MobileEmbedded())
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("cores=%d", cores)] = m.Net
	}
	for seed := int64(1); seed <= 20; seed++ {
		nets[fmt.Sprintf("random seed=%d", seed)] = randomOracleNetwork(t, rand.New(rand.NewSource(seed)))
	}
	for name, net := range nets {
		want := make([][]Adj, net.NumNodes())
		for _, e := range net.edges {
			want[e.a] = append(want[e.a], Adj{Node: e.b, G: e.g})
			want[e.b] = append(want[e.b], Adj{Node: e.a, G: e.g})
		}
		for i := range want {
			if got := net.View().Neighbors(i); !slices.Equal(got, want[i]) {
				t.Errorf("%s: node %d adjacency %v, edges touching it in order %v", name, i, got, want[i])
			}
		}
	}
}

// Euler's substep loop must not allocate once its accumulator exists.
// Race instrumentation allocates, so the assertion is skipped under
// -race.
func TestEulerStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := newMobileModel(t)
	power := testPower(m.Net.NumNodes())
	if err := m.Net.Step(0.01, power); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.Net.Step(0.01, power); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Euler Step allocates %.1f objects per call, want 0", allocs)
	}
}
