package thermal

import (
	"math"
	"testing"

	"thermbal/internal/floorplan"
)

// benchModel builds the model of the die on the package with the
// scheme installed.
func benchModel(b *testing.B, fp *floorplan.Floorplan, pkg Package, scheme Scheme) *Model {
	b.Helper()
	m, err := NewModel(fp, pkg)
	if err != nil {
		b.Fatal(err)
	}
	m.Net.SetIntegrator(NewIntegrator(scheme))
	return m
}

// benchSteadyStepping drives one simulated second of 10 ms sensor
// periods under constant power near steady state, the hot path of every
// experiment run.
func benchSteadyStepping(b *testing.B, m *Model, power []float64) {
	if err := m.Settle(power); err != nil {
		b.Fatal(err)
	}
	// Prime per-scheme one-time state (scratch buffers, the expm
	// propagator build) so the measured loop is the steady-state path
	// even at -benchtime 1x, where the single iteration would otherwise
	// absorb the setup cost and allocations.
	if err := m.Step(10e-3, power); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 100; s++ { // 1 simulated second
			if err := m.Step(10e-3, power); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(max(1, math.Ceil(10e-3/m.Net.Integrator().MaxStep(m.Net.View()))), "substeps/period")
}

// benchHighPerf steps the 3-core model on the high-performance package
// — the worst case for the stability bound (1/6 the thermal mass).
func benchHighPerf(b *testing.B, scheme Scheme) {
	m := benchModel(b, floorplan.Default3Core(), HighPerformance(), scheme)
	power := make([]float64, len(m.FP.Blocks))
	power[0], power[1], power[2] = 0.5, 0.4, 0.3
	benchSteadyStepping(b, m, power)
}

// BenchmarkStepEulerHighPerf measures explicit Euler on the
// high-performance package (the seed scheme).
func BenchmarkStepEulerHighPerf(b *testing.B) { benchHighPerf(b, Euler) }

// BenchmarkStepExpmHighPerf measures exact dense propagation: after the
// first step builds the memoized propagator, every period is one matvec
// pair with zero allocations.
func BenchmarkStepExpmHighPerf(b *testing.B) { benchHighPerf(b, Expm) }

// BenchmarkStepEulerManycore256 measures explicit Euler on manycore-256
// (n = 1539 nodes) on the mobile package, where the edge pass, not the
// substep count, sets the cost of a period.
func BenchmarkStepEulerManycore256(b *testing.B) {
	m := benchModel(b, floorplan.StreamingMPSoC(256), MobileEmbedded(), Euler)
	power := make([]float64, len(m.FP.Blocks))
	for i := range power {
		power[i] = 0.05 * float64(i%7)
	}
	benchSteadyStepping(b, m, power)
}

// BenchmarkStepExpmManycore64 measures the dense steady-state step on
// manycore-64 (n = 387 nodes) on the mobile package: one matvec pair
// per 10 ms period, with the propagator built before the timer starts.
func BenchmarkStepExpmManycore64(b *testing.B) {
	m := benchModel(b, floorplan.StreamingMPSoC(64), MobileEmbedded(), Expm)
	power := make([]float64, len(m.FP.Blocks))
	for i := range power {
		power[i] = 0.05 * float64(i%7)
	}
	benchSteadyStepping(b, m, power)
	if _, misses, _, _, _ := ExpmStats(m.Net.Integrator()); misses == 0 {
		b.Fatal("the 10 ms span took the Euler fallback, not the dense step")
	}
}

// benchExpmBuild measures one cold propagator build for the 10 ms
// sensor period on the mobile package: every iteration clears the
// shared cache and binds a fresh integrator, so each one builds.
func benchExpmBuild(b *testing.B, cores int) {
	m, err := NewModel(floorplan.StreamingMPSoC(cores), MobileEmbedded())
	if err != nil {
		b.Fatal(err)
	}
	v := m.Net.View()
	for b.Loop() {
		resetSharedProps()
		e := &expmIntegrator{}
		e.bind(v)
		e.propagator(10e-3)
	}
}

// BenchmarkExpmBuildManycore64 measures the build that dominates a
// cold manycore-64 expm run's set-up (n = 387 nodes).
func BenchmarkExpmBuildManycore64(b *testing.B) { benchExpmBuild(b, 64) }

// BenchmarkExpmBuildSDR measures the build on the paper's 3-core die,
// where the kernels' fixed costs matter more than their inner loops.
func BenchmarkExpmBuildSDR(b *testing.B) { benchExpmBuild(b, 3) }

// BenchmarkStepExpmFirstManycore256 measures a fresh expm integrator's
// first 10 ms step on manycore-256 (n = 1539) on the mobile package,
// where the span falls below the crossover and takes the Euler
// fallback. With -benchmem, B/op shows that binding allocates only
// O(n + nnz) state: no n×n matrix.
func BenchmarkStepExpmFirstManycore256(b *testing.B) {
	m, err := NewModel(floorplan.StreamingMPSoC(256), MobileEmbedded())
	if err != nil {
		b.Fatal(err)
	}
	power := make([]float64, len(m.FP.Blocks))
	for i := range power {
		power[i] = 0.05 * float64(i%7)
	}
	for b.Loop() {
		m.Net.SetIntegrator(NewIntegrator(Expm))
		if err := m.Step(10e-3, power); err != nil {
			b.Fatal(err)
		}
	}
}
