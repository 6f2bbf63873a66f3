package thermbal

import (
	"math"
	"testing"

	"thermbal/internal/scenario"
	"thermbal/internal/thermal"
)

// The expm scheme's correctness contract, checked on every registered
// scenario's thermal network: where dense propagation is affordable the
// exact step must agree with Euler-at-vanishing-dt within 1e-6 °C, and
// where the cost model keeps dense propagation out (very large tiled
// dies) the scheme must be bit-for-bit the Euler fallback.

// expmDenseMaxNodes bounds the networks validated on the dense path: a
// propagator build is O(n³), so the largest tiled dies (771+ nodes,
// where the cost crossover keeps dense propagation out anyway) are
// validated through the fallback property instead. 400 covers
// manycore-64, the largest network whose crossover still picks dense
// propagation at the sensor cadence.
const expmDenseMaxNodes = 400

// scenarioNet instantiates the scenario's platform and returns its
// thermal network with the given integrator scheme installed.
func scenarioNet(t *testing.T, sc scenario.Scenario, s thermal.Scheme) *thermal.Network {
	t.Helper()
	inst, err := sc.Instantiate(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	net := inst.Platform.Thermal.Net
	net.SetIntegrator(thermal.NewIntegrator(s))
	return net
}

// scenarioPower is a deterministic, non-uniform power vector exciting
// the first nodes of the network (the core/cache blocks in every
// floorplan layout).
func scenarioPower(n int) []float64 {
	p := make([]float64, n)
	for i := 0; i < n && i < 9; i++ {
		p[i] = 0.4 - 0.03*float64(i)
	}
	return p
}

// deriv evaluates the network's dT/dt from the view's exported
// accessors: each node's power plus g·(T_j − T_i) over its neighbours
// and the ambient term, over its capacitance.
func deriv(v thermal.View, temps, power, dst []float64) {
	for i := range dst {
		q := power[i]
		for _, a := range v.Neighbors(i) {
			q += a.G * (temps[a.Node] - temps[i])
		}
		q += v.AmbientG(i) * (v.Ambient() - temps[i])
		dst[i] = q / v.Capacitance(i)
	}
}

// tinyStepEuler is the "Euler at vanishing dt" reference: explicit
// Euler on deriv at steps h, h/2, h/4 with two Richardson
// extrapolation levels, cancelling the O(h) and O(h²) error terms. All
// three grids integrate exactly the same span.
func tinyStepEuler(v thermal.View, start []float64, total, h float64, power []float64) []float64 {
	base := int(math.Ceil(total / h))
	run := func(steps int) []float64 {
		h := total / float64(steps)
		temps := append([]float64(nil), start...)
		d := make([]float64, len(start))
		for s := 0; s < steps; s++ {
			deriv(v, temps, power, d)
			for i := range temps {
				temps[i] += h * d[i]
			}
		}
		return temps
	}
	full := run(base)
	half := run(2 * base)
	quarter := run(4 * base)
	out := make([]float64, len(full))
	for i := range out {
		r1 := 2*half[i] - full[i]
		r2 := 2*quarter[i] - half[i]
		out[i] = (4*r2 - r1) / 3
	}
	return out
}

func TestExpmValidAcrossScenarios(t *testing.T) {
	for _, name := range Scenarios() {
		sc, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			probe, err := sc.Instantiate(scenario.Options{})
			if err != nil {
				t.Fatal(err)
			}
			n := probe.Platform.Thermal.Net.NumNodes()
			power := scenarioPower(n)
			const window, windows = 0.01, 20

			if n <= expmDenseMaxNodes {
				// The crossover propagates a sensor window densely on
				// every network this size; compare against the
				// extrapolated tiny-step reference.
				net := scenarioNet(t, sc, thermal.Expm)
				start := net.Temperatures(nil)
				for w := 0; w < windows; w++ {
					if err := net.Step(window, power); err != nil {
						t.Fatal(err)
					}
				}
				if _, misses, _, _, _ := thermal.ExpmStats(net.Integrator()); misses == 0 {
					t.Fatalf("%d nodes: no %g s span propagated densely", n, window)
				}
				ref := tinyStepEuler(net.View(), start, window*windows, net.View().EulerMaxStep()/200, power)
				var worst float64
				for i := 0; i < n; i++ {
					if d := math.Abs(net.Temperature(i) - ref[i]); d > worst {
						worst = d
					}
				}
				t.Logf("%d nodes, dense: max |expm - tiny-step Euler| = %.3g °C", n, worst)
				if worst > 1e-6 {
					t.Errorf("max |expm - tiny-step Euler| = %.3g °C, want <= 1e-6", worst)
				}
				return
			}

			// Too large for an O(n³) build: the auto crossover must keep
			// the scheme on its Euler fallback, bit-for-bit.
			ne := scenarioNet(t, sc, thermal.Expm)
			nr := scenarioNet(t, sc, thermal.Euler)
			for w := 0; w < windows; w++ {
				if err := ne.Step(window, power); err != nil {
					t.Fatal(err)
				}
				if err := nr.Step(window, power); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				if ne.Temperature(i) != nr.Temperature(i) {
					t.Fatalf("node %d: expm fallback %v != euler %v (not bit-identical)",
						i, ne.Temperature(i), nr.Temperature(i))
				}
			}
			t.Logf("%d nodes: expm fell back to Euler bit-for-bit", n)
		})
	}
}
