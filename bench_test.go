package thermbal

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"thermbal/internal/experiment"
	"thermbal/internal/thermal"
)

// The benchmarks below regenerate, one per table/figure, every result of
// the paper's evaluation section. `go test -bench=. -benchmem` prints
// the headline metric of each experiment via b.ReportMetric, so the full
// evaluation is reproduced by the standard benchmark invocation.

// BenchmarkTable1PowerModel regenerates the component power table.
func BenchmarkTable1PowerModel(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiment.FormatTable1()
	}
	if !strings.Contains(out, "RISC32-streaming") {
		b.Fatal("table 1 malformed")
	}
}

// BenchmarkTable2Mapping regenerates the static energy-balanced mapping.
func BenchmarkTable2Mapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig2MigrationCost regenerates the migration cost curves for
// task-replication and task-recreation. Reported metrics: the cost in
// Mcycles for a 64 KB task under each mechanism.
func BenchmarkFig2MigrationCost(b *testing.B) {
	var rows []experiment.Fig2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Fig2(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.TaskSizeKB == 64 {
			b.ReportMetric(r.Replication/1e6, "Mcycles-repl-64KB")
			b.ReportMetric(r.Recreation/1e6, "Mcycles-recr-64KB")
		}
	}
}

// sweep runs the full three-policy threshold sweep for one package.
func sweep(b *testing.B, pkg experiment.PackageSel) []experiment.SweepPoint {
	b.Helper()
	var points []experiment.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.Sweep(pkg, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	return points
}

func metricAt(points []experiment.SweepPoint, pol experiment.PolicySel, delta float64,
	f func(experiment.SweepPoint) float64) float64 {
	for _, p := range points {
		if p.Policy == pol && p.Delta == delta {
			return f(p)
		}
	}
	return -1
}

// BenchmarkFig7StdDevMobile regenerates Figure 7: temperature standard
// deviation vs threshold, mobile package. Reported metrics: pooled std
// dev at the paper's ±3 °C operating point for the three policies.
func BenchmarkFig7StdDevMobile(b *testing.B) {
	points := sweep(b, experiment.Mobile)
	std := func(p experiment.SweepPoint) float64 { return p.Result.PooledStdDev }
	b.ReportMetric(metricAt(points, experiment.ThermalBalance, 3, std), "std-TB-d3")
	b.ReportMetric(metricAt(points, experiment.StopGo, 3, std), "std-SG-d3")
	b.ReportMetric(metricAt(points, experiment.EnergyBalance, 3, std), "std-EB-d3")
}

// BenchmarkFig8MissesMobile regenerates Figure 8: deadline misses vs
// threshold, mobile package.
func BenchmarkFig8MissesMobile(b *testing.B) {
	points := sweep(b, experiment.Mobile)
	miss := func(p experiment.SweepPoint) float64 { return float64(p.Result.DeadlineMisses) }
	b.ReportMetric(metricAt(points, experiment.ThermalBalance, 2, miss), "miss-TB-d2")
	b.ReportMetric(metricAt(points, experiment.ThermalBalance, 3, miss), "miss-TB-d3")
	b.ReportMetric(metricAt(points, experiment.StopGo, 3, miss), "miss-SG-d3")
}

// BenchmarkFig9StdDevHighPerf regenerates Figure 9: temperature standard
// deviation vs threshold, high-performance package.
func BenchmarkFig9StdDevHighPerf(b *testing.B) {
	points := sweep(b, experiment.HighPerf)
	std := func(p experiment.SweepPoint) float64 { return p.Result.PooledStdDev }
	spatial := func(p experiment.SweepPoint) float64 { return p.Result.SpatialStdDev }
	b.ReportMetric(metricAt(points, experiment.ThermalBalance, 3, std), "std-TB-d3")
	b.ReportMetric(metricAt(points, experiment.StopGo, 3, std), "std-SG-d3")
	b.ReportMetric(metricAt(points, experiment.EnergyBalance, 3, std), "std-EB-d3")
	b.ReportMetric(metricAt(points, experiment.ThermalBalance, 3, spatial), "spatial-TB-d3")
	b.ReportMetric(metricAt(points, experiment.StopGo, 3, spatial), "spatial-SG-d3")
}

// BenchmarkFig10MissesHighPerf regenerates Figure 10: deadline misses vs
// threshold, high-performance package.
func BenchmarkFig10MissesHighPerf(b *testing.B) {
	points := sweep(b, experiment.HighPerf)
	miss := func(p experiment.SweepPoint) float64 { return float64(p.Result.DeadlineMisses) }
	b.ReportMetric(metricAt(points, experiment.ThermalBalance, 2, miss), "miss-TB-d2")
	b.ReportMetric(metricAt(points, experiment.ThermalBalance, 5, miss), "miss-TB-d5")
	b.ReportMetric(metricAt(points, experiment.StopGo, 3, miss), "miss-SG-d3")
}

// BenchmarkFig11MigrationRate regenerates Figure 11: migrations per
// second vs threshold for both packages. Reported metrics: rates at the
// operating point plus the KB/s the paper quotes (~192 KB/s at 3/s).
func BenchmarkFig11MigrationRate(b *testing.B) {
	var mob, hp []experiment.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		mob, err = experiment.Sweep(experiment.Mobile, nil)
		if err != nil {
			b.Fatal(err)
		}
		hp, err = experiment.Sweep(experiment.HighPerf, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	pts := experiment.Fig11(mob, hp, nil)
	for _, p := range pts {
		if p.Delta != 3 {
			continue
		}
		if p.Package == experiment.Mobile {
			b.ReportMetric(p.PerSec, "mobile-mig/s-d3")
		} else {
			b.ReportMetric(p.PerSec, "hp-mig/s-d3")
			b.ReportMetric(p.KBps, "hp-KB/s-d3")
		}
	}
}

// benchSweepWorkers runs a reduced threshold sweep (both packages,
// thermal-balance at every threshold, short windows) across the given
// worker count — the wall-clock comparison for the parallel Runner.
func benchSweepWorkers(b *testing.B, workers int, th thermal.Config) {
	b.Helper()
	var cfgs []experiment.RunConfig
	for _, pkg := range []experiment.PackageSel{experiment.Mobile, experiment.HighPerf} {
		for _, d := range experiment.Deltas {
			cfgs = append(cfgs, experiment.RunConfig{
				Policy: experiment.ThermalBalance, Delta: d, Package: pkg,
				WarmupS: 2, MeasureS: 3, Thermal: th,
			})
		}
	}
	r := experiment.Runner{Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiment.RunAll(context.Background(), r, cfgs)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(cfgs) {
			b.Fatalf("got %d results", len(results))
		}
	}
}

// BenchmarkSweepSerial is the pre-refactor behavior: one run at a time.
func BenchmarkSweepSerial(b *testing.B) { benchSweepWorkers(b, 1, thermal.Config{}) }

// BenchmarkSweepSerialExpm is the same sweep under the exact
// matrix-exponential scheme: memoized dense propagators replace the
// Euler substep loop and the engine batches span accounting exactly.
func BenchmarkSweepSerialExpm(b *testing.B) {
	benchSweepWorkers(b, 1, thermal.Config{Scheme: thermal.Expm})
}

// BenchmarkSweepParallel spreads the same runs over GOMAXPROCS workers;
// the wall-clock ratio to BenchmarkSweepSerial is the Runner's speedup.
func BenchmarkSweepParallel(b *testing.B) {
	benchSweepWorkers(b, runtime.GOMAXPROCS(0), thermal.Config{})
}

// BenchmarkEngineTick measures raw simulation throughput: simulated
// seconds per wall second of the full platform (scheduler + thermal +
// policy), the emulation-speed figure of merit of the framework itself.
func BenchmarkEngineTick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Policy: ThermalBalance, Delta: 3, WarmupS: 1, MeasureS: 4})
		if err != nil {
			b.Fatal(err)
		}
		if res.MeasuredS <= 0 {
			b.Fatal("no measurement window")
		}
	}
}

// benchManycore32 runs the 32-core tiled scenario under the balancing
// policy for a short window — the scale point where per-tick cost grows
// linearly with cores and the event-horizon fast path matters most.
func benchManycore32(b *testing.B, noFastPath bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, _, err := experiment.Run(experiment.RunConfig{
			Scenario: "manycore-32", PolicyName: "thermal-balance", Delta: 2,
			WarmupS: 1, MeasureS: 2, NoFastPath: noFastPath,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.MeasuredS <= 0 {
			b.Fatal("no measurement window")
		}
	}
}

// BenchmarkManycore32 is the scaling figure of merit with the fast path
// enabled (the default).
func BenchmarkManycore32(b *testing.B) { benchManycore32(b, false) }

// BenchmarkManycore32TickStepped disables the fast path; the ratio to
// BenchmarkManycore32 is the macro-stepping speedup at 32 cores
// (results are bit-for-bit identical either way).
func BenchmarkManycore32TickStepped(b *testing.B) { benchManycore32(b, true) }

// benchManycore runs a tiled many-core scenario under the balancing
// policy for the benchmark module's manycore window (1 s + 2 s).
func benchManycore(b *testing.B, name string, th thermal.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, _, err := experiment.Run(experiment.RunConfig{
			Scenario: name, PolicyName: "thermal-balance", Delta: 2,
			WarmupS: 1, MeasureS: 2, Thermal: th,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.MeasuredS <= 0 {
			b.Fatal("no measurement window")
		}
	}
}

// BenchmarkManycore256 is the interactivity headline: the 256-core
// tiled die (1539 thermal nodes) under the balancing policy. At this
// size the expm cost model keeps the thermal side on sparse Euler
// substeps, and the engine's sim layer — plain ticks over 256 cores and
// the event-horizon scans — dominates: most groups end in a plain tick
// because some core has an event on the next one, which is what the
// per-core event calendar and its quiet-core path target.
func BenchmarkManycore256(b *testing.B) { benchManycore(b, "manycore-256", thermal.Config{}) }

// BenchmarkManycore64Expm is the largest die on which expm propagates
// densely (the benchmark module's other manycore configuration). Since
// the event calendar the dense thermal side — propagation and
// propagator builds — dominates it; the engine takes under a fifth.
func BenchmarkManycore64Expm(b *testing.B) {
	benchManycore(b, "manycore-64", thermal.Config{Scheme: thermal.Expm})
}

// BenchmarkAblations runs the design-choice ablation suite (daemon
// period, TopK, cost filter, mechanism, queue sizing).
func BenchmarkAblations(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = experiment.AllAblations()
		if err != nil {
			b.Fatal(err)
		}
	}
	if !strings.Contains(out, "Ablation A5") {
		b.Fatal("ablation output truncated")
	}
}

// BenchmarkScalability runs generated workloads on 2/4/8-core platforms
// under the balancing policy (the framework "can be scaled to any number
// of cores sub-systems", paper Section 4).
func BenchmarkScalability(b *testing.B) {
	var rows []experiment.ScaleRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Scale(nil, 11)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Cores == 8 {
			b.ReportMetric(r.PooledStdDev, "std-8core")
			b.ReportMetric(float64(r.Migrations), "migr-8core")
		}
	}
}
