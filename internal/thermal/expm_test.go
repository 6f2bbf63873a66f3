package thermal

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"thermbal/internal/floorplan"
)

// expmModel builds the 3-core model on the given package with dense
// propagation forced for every span (crossover disabled).
func expmModel(t *testing.T, pkg Package) *Model {
	t.Helper()
	m, err := NewModel(floorplan.Default3Core(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	m.Net.SetIntegrator(NewIntegrator(Config{Scheme: Expm, ExpmMinSubsteps: 1}))
	return m
}

// testPower returns a deterministic non-uniform power vector for n
// nodes: a few watts on the first nodes (the block nodes of the 3-core
// model), nothing elsewhere — matching the shape FlushWindow produces.
func testPower(n int) []float64 {
	p := make([]float64, n)
	for i := 0; i < n && i < 7; i++ {
		p[i] = 0.5 - 0.05*float64(i)
	}
	return p
}

// richardsonEuler integrates the network's ODE with explicit Euler at
// fixed steps h, h/2 and h/4 and returns the doubly
// Richardson-extrapolated trajectory after `total` seconds, starting
// from the network's current state. Euler's global error expands in
// powers of h; the first extrapolation 2·T_{h/2} − T_h cancels the
// O(h) term, the second level cancels O(h²), leaving a reference well
// below a 1e-6 budget at steps any plain Euler run could never afford.
func richardsonEuler(v View, start []float64, total, h float64, power []float64) []float64 {
	// Snap h so it divides the total exactly: every grid must integrate
	// the same span or the extrapolation compares different end times.
	steps := int(math.Ceil(total / h))
	h = total / float64(steps)
	run := func(steps int) []float64 {
		h := total / float64(steps)
		temps := append([]float64(nil), start...)
		d := make([]float64, len(start))
		for s := 0; s < steps; s++ {
			nodeDeriv(v, temps, power, d)
			for i := range temps {
				temps[i] += h * d[i]
			}
		}
		return temps
	}
	full := run(steps)
	half := run(2 * steps)
	quarter := run(4 * steps)
	out := make([]float64, len(full))
	for i := range out {
		r1 := 2*half[i] - full[i]    // O(h²)
		r2 := 2*quarter[i] - half[i] // O((h/2)²)
		out[i] = (4*r2 - r1) / 3     // O(h³)
	}
	return out
}

// Exactness against Euler-at-tiny-dt: one second of 10 ms sensor
// windows from ambient (the sharpest transient) must agree with the
// Richardson-extrapolated tiny-step Euler reference within 1e-6 °C on
// both packages.
func TestExpmMatchesTinyStepEuler(t *testing.T) {
	for _, tc := range []struct {
		name string
		pkg  Package
	}{
		{"mobile", MobileEmbedded()},
		{"highperf", HighPerformance()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := expmModel(t, tc.pkg)
			n := m.Net.NumNodes()
			power := testPower(n)
			start := m.Net.Temperatures(nil)
			const window, windows = 0.01, 100
			for w := 0; w < windows; w++ {
				if err := m.Net.Step(window, power); err != nil {
					t.Fatal(err)
				}
			}
			ref := richardsonEuler(m.Net.View(), start, window*windows, m.Net.View().EulerMaxStep()/200, power)
			var worst float64
			for i := 0; i < n; i++ {
				if d := math.Abs(m.Net.Temperature(i) - ref[i]); d > worst {
					worst = d
				}
			}
			if worst > 1e-6 {
				t.Errorf("max |expm - tiny-step Euler| = %.3g °C, want <= 1e-6", worst)
			}
		})
	}
}

// The t→∞ limit: propagating one enormous exact span must land on the
// linear solver's steady state.
func TestExpmReachesSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		pkg  Package
	}{
		{"mobile", MobileEmbedded()},
		{"highperf", HighPerformance()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := expmModel(t, tc.pkg)
			power := testPower(m.Net.NumNodes())
			want, err := m.Net.SteadyState(power)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Net.Step(1e5, power); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if d := math.Abs(m.Net.Temperature(i) - want[i]); d > 1e-7 {
					t.Errorf("node %d: |T(1e5 s) - steady| = %.3g °C", i, d)
				}
			}
		})
	}
}

// Memo-cache exactness: a repeated span length never rebuilds the
// propagator, and repeating the same span from the same state yields
// bit-identical trajectories across two fresh integrators.
func TestExpmMemoCacheExact(t *testing.T) {
	m1 := expmModel(t, HighPerformance())
	m2 := expmModel(t, HighPerformance())
	power := testPower(m1.Net.NumNodes())
	const spans = 200
	for s := 0; s < spans; s++ {
		if err := m1.Net.Step(0.01, power); err != nil {
			t.Fatal(err)
		}
		if err := m2.Net.Step(0.01, power); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, entries, evictions, ok := ExpmStats(m1.Net.Integrator())
	if !ok {
		t.Fatal("ExpmStats: not an expm integrator")
	}
	if misses != 1 || hits != spans-1 || entries != 1 || evictions != 0 {
		t.Errorf("cache stats = %d hits, %d misses, %d entries, %d evictions; want %d/1/1/0",
			hits, misses, entries, evictions, spans-1)
	}
	for i := 0; i < m1.Net.NumNodes(); i++ {
		if m1.Net.Temperature(i) != m2.Net.Temperature(i) {
			t.Fatalf("node %d: trajectories diverged between identical integrators: %v vs %v",
				i, m1.Net.Temperature(i), m2.Net.Temperature(i))
		}
	}
}

// The FIFO eviction bound: sweeping more distinct span lengths than
// the cache holds must evict rather than grow.
func TestExpmCacheEviction(t *testing.T) {
	m := expmModel(t, HighPerformance())
	power := testPower(m.Net.NumNodes())
	for i := 0; i < expmCacheCap+8; i++ {
		if err := m.Net.Step(0.01+0.001*float64(i), power); err != nil {
			t.Fatal(err)
		}
	}
	_, misses, entries, evictions, _ := ExpmStats(m.Net.Integrator())
	if entries > expmCacheCap {
		t.Errorf("cache grew to %d entries, cap %d", entries, expmCacheCap)
	}
	if evictions != 8 || misses != expmCacheCap+8 {
		t.Errorf("misses=%d evictions=%d, want %d/8", misses, evictions, expmCacheCap+8)
	}
}

// Below the crossover the integrator must delegate to the embedded
// Euler fallback bit-for-bit: a span that explicit Euler covers in a
// couple of substeps, on an integrator whose threshold keeps dense
// propagation out of reach.
func TestExpmFallbackIsEulerBitForBit(t *testing.T) {
	m1, err := NewModel(floorplan.Default3Core(), MobileEmbedded())
	if err != nil {
		t.Fatal(err)
	}
	m1.Net.SetIntegrator(NewIntegrator(Config{Scheme: Expm, ExpmMinSubsteps: 1 << 30}))
	m2, err := NewModel(floorplan.Default3Core(), MobileEmbedded())
	if err != nil {
		t.Fatal(err)
	}
	power := testPower(m1.Net.NumNodes())
	for s := 0; s < 100; s++ {
		if err := m1.Net.Step(0.01, power); err != nil {
			t.Fatal(err)
		}
		if err := m2.Net.Step(0.01, power); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < m1.Net.NumNodes(); i++ {
		if m1.Net.Temperature(i) != m2.Net.Temperature(i) {
			t.Fatalf("node %d: fallback diverged from Euler: %v vs %v",
				i, m1.Net.Temperature(i), m2.Net.Temperature(i))
		}
	}
}

// The hot loop must not allocate once the propagator is cached, on
// the kernels this host runs (the AVX ones where the CPU has them) and
// on the Go kernels alike. Race instrumentation allocates, so the
// assertion is skipped under -race.
func TestExpmStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := expmModel(t, HighPerformance())
	power := testPower(m.Net.NumNodes())
	// Prime the cache.
	if err := m.Net.Step(0.01, power); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.Net.Step(0.01, power); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache-hit Step allocates %.1f objects per call, want 0", allocs)
	}
	e := m.Net.Integrator().(*expmIntegrator)
	p, temps := e.propagator(0.01), make([]float64, len(power))
	for name, k := range testKernels(t) {
		allocs := testing.AllocsPerRun(200, func() {
			k.step(p, temps, power, e.y)
		})
		if allocs != 0 {
			t.Errorf("%s step kernels allocate %.1f objects per call, want 0", name, allocs)
		}
	}
}

// The shared build cache must hand two integrators of identical
// systems one propagator without a second build, and distinct systems
// must never share (the high-performance package scales the mobile
// one, so its propagators differ).
func TestExpmSharedBuildCache(t *testing.T) {
	mA := expmModel(t, MobileEmbedded())
	mB := expmModel(t, MobileEmbedded())
	mC := expmModel(t, HighPerformance())
	power := testPower(mA.Net.NumNodes())
	for _, m := range []*Model{mA, mB, mC} {
		if err := m.Net.Step(0.01, power); err != nil {
			t.Fatal(err)
		}
	}
	igA := mA.Net.Integrator().(*expmIntegrator)
	igB := mB.Net.Integrator().(*expmIntegrator)
	igC := mC.Net.Integrator().(*expmIntegrator)
	pA, pB, pC := igA.propagator(0.01), igB.propagator(0.01), igC.propagator(0.01)
	if pA != pB {
		t.Error("identical systems did not share one cached propagator")
	}
	if pA == pC {
		t.Error("distinct packages shared a propagator")
	}

	// The sparse key: two separately built identical networks share one
	// build, and a difference in a single edge conductance, the ambient
	// temperature or one capacitance by one ULP never shares.
	resetSharedProps()
	builds := func() int {
		sharedPropMu.Lock()
		defer sharedPropMu.Unlock()
		return sharedPropBuilds
	}
	prop := func(g, cDie, ambient float64) *propagator {
		b := NewBuilder()
		die := b.AddNode("die", cDie, 0)
		spr := b.AddNode("spreader", 0.05, 0)
		sink := b.AddNode("sink", 0.5, 0.05)
		b.Connect(die, spr, g)
		b.Connect(spr, sink, 0.5)
		net, err := b.Build(ambient)
		if err != nil {
			t.Fatal(err)
		}
		e := newExpm(1)
		e.bind(net.View())
		return e.propagator(0.01)
	}
	before := builds()
	base := prop(0.2, 0.01, 25)
	if p := prop(0.2, 0.01, 25); p != base || builds()-before != 1 {
		t.Errorf("identical networks: %d builds, shared=%v; want 1 build, shared", builds()-before, p == base)
	}
	for _, tc := range []struct {
		name             string
		g, cDie, ambient float64
	}{
		{"edge conductance", 0.21, 0.01, 25},
		{"ambient", 0.2, 0.01, 26},
		{"capacitance by one ULP", 0.2, math.Nextafter(0.01, 1), 25},
	} {
		before := builds()
		if p := prop(tc.g, tc.cDie, tc.ambient); p == base || builds()-before != 1 {
			t.Errorf("%s differs: %d builds, shared=%v; want 1 build, not shared", tc.name, builds()-before, p == base)
		}
	}
}

// resetSharedProps empties the process-wide propagator cache, so the
// next miss on any system builds.
func resetSharedProps() {
	sharedPropMu.Lock()
	sharedProps = map[uint64][]*sharedPropEntry{}
	sharedPropN = 0
	sharedPropMu.Unlock()
}

// Concurrent runs that miss the same system and span must share one
// build: the first publishes an in-flight entry and the others wait on
// it instead of each building (and caching) their own copy.
func TestExpmConcurrentMissBuildsOnce(t *testing.T) {
	m, err := NewModel(floorplan.StreamingMPSoC(16), MobileEmbedded())
	if err != nil {
		t.Fatal(err)
	}
	resetSharedProps()
	sharedPropMu.Lock()
	before := sharedPropBuilds
	sharedPropMu.Unlock()

	const runs = 4
	got := make([]*propagator, runs)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		e := newExpm(1)
		e.bind(m.Net.View())
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[r] = e.propagator(10e-3)
		}()
	}
	close(start)
	wg.Wait()

	sharedPropMu.Lock()
	builds, entries := sharedPropBuilds-before, sharedPropN
	sharedPropMu.Unlock()
	if builds != 1 || entries != 1 {
		t.Errorf("%d concurrent misses made %d builds and %d cache entries, want 1 and 1", runs, builds, entries)
	}
	for r, p := range got {
		if p == nil || p != got[0] {
			t.Errorf("run %d received propagator %p, run 0 %p", r, p, got[0])
		}
	}
}

// A network whose spans all fall below the crossover never propagates
// densely, so it must never hold n×n state: the first 10 ms step of
// manycore-256 on the mobile package (6 Euler substeps, crossover 14)
// builds nothing, allocates far less than one dense matrix, and is
// bit-identical to the Euler integrator's step.
func TestExpmNoDenseStateBelowCrossover(t *testing.T) {
	fp := floorplan.StreamingMPSoC(256)
	mx, err := NewModel(fp, MobileEmbedded())
	if err != nil {
		t.Fatal(err)
	}
	me, err := NewModel(fp, MobileEmbedded())
	if err != nil {
		t.Fatal(err)
	}
	mx.Net.SetIntegrator(NewIntegrator(Config{Scheme: Expm}))
	power := make([]float64, len(fp.Blocks))
	for i := range power {
		power[i] = 0.05 * float64(i%7)
	}
	n := mx.Net.NumNodes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := mx.Step(10e-3, power); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*n*8/64); alloc >= limit {
		t.Errorf("first step allocated %d B, want < n²·8/64 = %d B (n = %d)", alloc, limit, n)
	}
	if _, misses, _, _, _ := ExpmStats(mx.Net.Integrator()); misses != 0 {
		t.Errorf("ExpmStats misses = %d, want 0", misses)
	}
	if err := me.Step(10e-3, power); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(mx.Net.Temperature(i)) != math.Float64bits(me.Net.Temperature(i)) {
			t.Fatalf("node %d: expm fallback %v, euler %v", i, mx.Net.Temperature(i), me.Net.Temperature(i))
		}
	}
}

// The automatic crossover picks dense bits or Euler bits for every expm
// document, so it is part of the output contract: this table pins it
// at the 10 ms sensor period on the paper's die and the tiled dies, on
// both packages.
func TestExpmCrossoverPinned(t *testing.T) {
	cases := []struct {
		cores    int
		pkg      Package
		autoMin  int
		substeps int
		dense    bool
	}{
		{3, MobileEmbedded(), 1, 4, true},
		{3, HighPerformance(), 1, 20, true},
		{16, MobileEmbedded(), 1, 4, true},
		{16, HighPerformance(), 1, 21, true},
		{64, MobileEmbedded(), 4, 4, true},
		{64, HighPerformance(), 4, 21, true},
		{256, MobileEmbedded(), 14, 6, false},
		{256, HighPerformance(), 14, 36, true},
	}
	for _, tc := range cases {
		m, err := NewModel(floorplan.StreamingMPSoC(tc.cores), tc.pkg)
		if err != nil {
			t.Fatal(err)
		}
		e := newExpm(0)
		e.bind(m.Net.View())
		autoMin, substeps, dense := e.autoMin, int(math.Ceil(10e-3/m.Net.View().EulerMaxStep())), e.useExpm(10e-3)
		if autoMin != tc.autoMin || substeps != tc.substeps || dense != tc.dense {
			t.Errorf("%d cores/%s: autoMin %d, substeps %d, dense %v; want %d, %d, %v: "+
				"moving the crossover changes the bytes of expm documents under unchanged keys",
				tc.cores, tc.pkg.Name, autoMin, substeps, dense, tc.autoMin, tc.substeps, tc.dense)
		}
	}
}
