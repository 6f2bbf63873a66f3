package thermal

import (
	"math"
	"testing"

	"thermbal/internal/floorplan"
)

// blockIndex returns the index of the named floorplan block; it panics
// if there is none.
func blockIndex(fp *floorplan.Floorplan, name string) int {
	for i, b := range fp.Blocks {
		if b.Name == name {
			return i
		}
	}
	panic("missing block " + name)
}

// SteadyState returns the equilibrium temperature of every floorplan
// block under constant blockPower: the reference the transient tests
// converge to.
func (m *Model) SteadyState(blockPower []float64) ([]float64, error) {
	pv, err := m.powerVector(blockPower)
	if err != nil {
		return nil, err
	}
	full, err := m.Net.SteadyState(pv)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(m.FP.Blocks))
	for i := range out {
		out[i] = full[m.blockNode[i]]
	}
	return out, nil
}

// table2Power builds a per-block power vector approximating the paper's
// initial energy-balanced mapping (Table 2): core 1 at 533 MHz / 65 %
// load, cores 2 and 3 at 266 MHz / ~67 and ~80 % load. Values here are
// the raw watts the power model produces for that operating point.
func table2Power(fp *floorplan.Floorplan) []float64 {
	p := make([]float64, len(fp.Blocks))
	set := func(name string, w float64) {
		p[blockIndex(fp, name)] = w
	}
	set("core1", 0.38)
	set("icache1", 0.007)
	set("dcache1", 0.028)
	set("core2", 0.075)
	set("icache2", 0.002)
	set("dcache2", 0.009)
	set("core3", 0.075)
	set("icache3", 0.002)
	set("dcache3", 0.009)
	set("sharedmem", 0.006)
	return p
}

func newMobileModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(floorplan.Default3Core(), MobileEmbedded())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelRejectsBadPackage(t *testing.T) {
	pkg := MobileEmbedded()
	pkg.CapScale = 0
	if _, err := NewModel(floorplan.Default3Core(), pkg); err == nil {
		t.Error("NewModel accepted zero CapScale")
	}
}

func TestModelStartsAtAmbient(t *testing.T) {
	m := newMobileModel(t)
	for i := range m.FP.Blocks {
		if got := m.BlockTemp(i); got != 25 {
			t.Errorf("block %s starts at %g, want ambient 25", m.FP.Blocks[i].Name, got)
		}
	}
}

// The key calibration check: under the Table 2 power distribution the
// steady-state spread between the hottest core (core 1) and the coolest
// (core 3) must be roughly the 10 °C the paper reports, and core 2 must
// sit between them (warmer than core 3 because it neighbours core 1).
func TestTable2SteadyGradient(t *testing.T) {
	m := newMobileModel(t)
	if err := m.Settle(table2Power(m.FP)); err != nil {
		t.Fatal(err)
	}
	t1 := m.CoreTemp(0)
	t2 := m.CoreTemp(1)
	t3 := m.CoreTemp(2)
	t.Logf("steady temps: core1=%.2f core2=%.2f core3=%.2f", t1, t2, t3)
	if !(t1 > t2 && t2 > t3) {
		t.Fatalf("ordering wrong: %.2f, %.2f, %.2f (want core1 > core2 > core3)", t1, t2, t3)
	}
	spread := t1 - t3
	if spread < 7 || spread > 13 {
		t.Errorf("core1-core3 spread = %.2f °C, want ≈10 (7..13)", spread)
	}
	// Absolute operating point must be physically sensible for a
	// mobile SoC: above ambient, below thermal-runaway territory.
	for id := 0; id < 3; id++ {
		temp := m.CoreTemp(id)
		if temp < 35 || temp > 95 {
			t.Errorf("core%d steady = %.2f °C, outside plausible 35..95", id+1, temp)
		}
	}
}

// The mobile package must take seconds to develop the gradient (the
// paper: ~10 degrees requires a few seconds; temperatures stable well
// within the 12.5 s warm-up).
func TestMobileWarmupTimescale(t *testing.T) {
	m := newMobileModel(t)
	p := table2Power(m.FP)
	ss, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	ci := blockIndex(m.FP, "core1")
	target := ss[ci]

	// After 1 s the core must still be far from steady state...
	if err := m.Step(1.0, p); err != nil {
		t.Fatal(err)
	}
	rise1 := m.BlockTemp(ci) - 25
	total := target - 25
	if rise1 > 0.8*total {
		t.Errorf("after 1 s core1 already at %.0f%% of final rise; mobile package too fast", 100*rise1/total)
	}
	// ...but by 12.5 s it must be essentially settled (paper: stable
	// after the 12.5 s first execution phase).
	if err := m.Step(11.5, p); err != nil {
		t.Fatal(err)
	}
	rise125 := m.BlockTemp(ci) - 25
	if rise125 < 0.9*total {
		t.Errorf("after 12.5 s core1 at %.0f%% of final rise, want ≥90%%", 100*rise125/total)
	}
}

// The high-performance package must be ~6x faster than mobile: compare
// the time to reach half the final rise.
func TestHighPerformanceSixTimesFaster(t *testing.T) {
	fp := floorplan.Default3Core()
	mob, err := NewModel(fp, MobileEmbedded())
	if err != nil {
		t.Fatal(err)
	}
	hp, err := NewModel(fp, HighPerformance())
	if err != nil {
		t.Fatal(err)
	}
	if got := HighPerformance().SpeedupVs(MobileEmbedded()); math.Abs(got-6) > 1e-9 {
		t.Fatalf("SpeedupVs = %g, want 6", got)
	}
	p := table2Power(fp)
	ci := blockIndex(fp, "core1")
	ss, err := mob.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	half := 25 + (ss[ci]-25)/2

	halfTime := func(m *Model) float64 {
		const h = 0.005
		for tm := 0.0; tm < 60; tm += h {
			if m.BlockTemp(ci) >= half {
				return tm
			}
			if err := m.Step(h, p); err != nil {
				t.Fatal(err)
			}
		}
		t.Fatal("never reached half rise")
		return 0
	}
	tMob := halfTime(mob)
	tHP := halfTime(hp)
	ratio := tMob / tHP
	t.Logf("half-rise: mobile %.3f s, high-perf %.3f s, ratio %.2f", tMob, tHP, ratio)
	if ratio < 5 || ratio > 7 {
		t.Errorf("speed ratio = %.2f, want ≈6", ratio)
	}
}

// Same resistances, scaled capacitances: the two packages must agree on
// steady state exactly.
func TestPackagesShareSteadyState(t *testing.T) {
	fp := floorplan.Default3Core()
	mob, _ := NewModel(fp, MobileEmbedded())
	hp, _ := NewModel(fp, HighPerformance())
	p := table2Power(fp)
	s1, err := mob.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := hp.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if math.Abs(s1[i]-s2[i]) > 1e-6 {
			t.Errorf("block %s: mobile %.4f vs high-perf %.4f", fp.Blocks[i].Name, s1[i], s2[i])
		}
	}
}

func TestCoreTempUnknownCore(t *testing.T) {
	m := newMobileModel(t)
	if got := m.CoreTemp(99); !math.IsNaN(got) {
		t.Errorf("CoreTemp(99) = %g, want NaN", got)
	}
}

func TestModelStepRejectsWrongLength(t *testing.T) {
	m := newMobileModel(t)
	if err := m.Step(0.01, []float64{1}); err == nil {
		t.Error("Step accepted short power vector")
	}
	if _, err := m.SteadyState([]float64{1}); err == nil {
		t.Error("SteadyState accepted short power vector")
	}
	if err := m.Settle([]float64{1}); err == nil {
		t.Error("Settle accepted short power vector")
	}
}

// Swapping the power of core1 and core3 must mirror the gradient: the
// floorplan is symmetric under reflection, so |t1-t3| is preserved with
// roles exchanged.
func TestGradientMirrorSymmetry(t *testing.T) {
	m := newMobileModel(t)
	p := table2Power(m.FP)
	if err := m.Settle(p); err != nil {
		t.Fatal(err)
	}
	d1 := m.CoreTemp(0) - m.CoreTemp(2)

	// Mirror the power assignment.
	q := make([]float64, len(p))
	copy(q, p)
	swap := func(a, b string) {
		ia, ib := blockIndex(m.FP, a), blockIndex(m.FP, b)
		q[ia], q[ib] = q[ib], q[ia]
	}
	swap("core1", "core3")
	swap("icache1", "icache3")
	swap("dcache1", "dcache3")
	if err := m.Settle(q); err != nil {
		t.Fatal(err)
	}
	d2 := m.CoreTemp(2) - m.CoreTemp(0)
	if d1 <= 0 || d2 <= 0 {
		t.Fatalf("mirrored ordering broken: d1=%.3f d2=%.3f", d1, d2)
	}
	// The cache columns sit to the right of every core, so the
	// floorplan is only approximately mirror-symmetric; allow 40%.
	if diff := math.Abs(d1 - d2); diff > 0.4*math.Max(d1, d2) {
		t.Errorf("mirrored gradients differ too much: %.3f vs %.3f", d1, d2)
	}
}

func TestUniformPowerNearlyUniformTemps(t *testing.T) {
	m := newMobileModel(t)
	var area float64
	for _, blk := range m.FP.Blocks {
		area += blk.Area()
	}
	p := make([]float64, len(m.FP.Blocks))
	for i, blk := range m.FP.Blocks {
		// Equal power density everywhere.
		p[i] = 20 * blk.Area() / area * 0.5
	}
	if err := m.Settle(p); err != nil {
		t.Fatal(err)
	}
	t1, t3 := m.CoreTemp(0), m.CoreTemp(2)
	if math.Abs(t1-t3) > 0.5 {
		t.Errorf("uniform power density gives %.2f vs %.2f core spread", t1, t3)
	}
}
