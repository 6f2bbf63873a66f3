package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable1Anchors(t *testing.T) {
	// The model must reproduce Table 1 exactly at the reference point:
	// full activity, 500 MHz, nominal voltage.
	m := Default()
	if got := m.CoreDynamic(RefFrequencyHz, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Conf1 core @500MHz full = %g W, want 0.5", got)
	}
	m2 := NewModel(Params{Config: Conf2ARM11})
	if got := m2.CoreDynamic(RefFrequencyHz, 1); math.Abs(got-0.27) > 1e-12 {
		t.Errorf("Conf2 core @500MHz full = %g W, want 0.27", got)
	}
	if got := m.DCache(RefFrequencyHz, 1); math.Abs(got-0.043) > 1e-12 {
		t.Errorf("DCache = %g W, want 0.043", got)
	}
	if got := m.ICache(RefFrequencyHz, 1); math.Abs(got-0.011) > 1e-12 {
		t.Errorf("ICache = %g W, want 0.011", got)
	}
	if got := m.SharedMem(1); math.Abs(got-0.015) > 1e-12 {
		t.Errorf("SharedMem full = %g W, want 0.015", got)
	}
}

func TestCoreConfigString(t *testing.T) {
	if Conf1Streaming.String() != "RISC32-streaming (Conf1)" {
		t.Error("Conf1 name wrong")
	}
	if Conf2ARM11.String() != "RISC32-ARM11 (Conf2)" {
		t.Error("Conf2 name wrong")
	}
	if CoreConfig(7).String() != "CoreConfig(7)" {
		t.Error("unknown config name wrong")
	}
	if Conf1Streaming.MaxPowerW() != 0.5 || Conf2ARM11.MaxPowerW() != 0.27 {
		t.Error("MaxPowerW anchors wrong")
	}
}

func TestVoltageLadder(t *testing.T) {
	m := Default()
	if got := m.Voltage(DefaultFMaxHz); got != 1.2 {
		t.Errorf("V(fmax) = %g, want 1.2", got)
	}
	if got := m.Voltage(0); got != 0.8 {
		t.Errorf("V(0) = %g, want 0.8 (vmin)", got)
	}
	if got := m.Voltage(2 * DefaultFMaxHz); got != 1.2 {
		t.Errorf("V above fmax = %g, want clamp at 1.2", got)
	}
	// Monotone non-decreasing in f.
	prev := -1.0
	for f := 0.0; f <= DefaultFMaxHz; f += DefaultFMaxHz / 16 {
		v := m.Voltage(f)
		if v < prev {
			t.Fatalf("voltage not monotone at f=%g: %g < %g", f, v, prev)
		}
		prev = v
	}
}

func TestDynamicScalesSuperlinearly(t *testing.T) {
	// Halving frequency must cut dynamic power by much more than half
	// because voltage drops too (the DVFS premise of the paper's Fig. 1).
	m := Default()
	full := m.CoreDynamic(DefaultFMaxHz, 1)
	half := m.CoreDynamic(DefaultFMaxHz/2, 1)
	if ratio := half / full; ratio >= 0.5 {
		t.Errorf("P(f/2)/P(f) = %g, want < 0.5 (voltage scaling)", ratio)
	}
	if ratio := half / full; ratio < 0.2 {
		t.Errorf("P(f/2)/P(f) = %g, implausibly low", ratio)
	}
}

func TestStoppedCoreConsumesNoDynamic(t *testing.T) {
	m := Default()
	if got := m.CoreDynamic(0, 1); got != 0 {
		t.Errorf("stopped core dynamic = %g, want 0", got)
	}
	if got := m.CoreDynamic(-1, 0.5); got != 0 {
		t.Errorf("negative frequency dynamic = %g, want 0", got)
	}
}

func TestIdleFloor(t *testing.T) {
	m := Default()
	idle := m.CoreDynamic(DefaultFMaxHz, 0)
	if idle <= 0 {
		t.Fatal("idle clocked core consumes nothing; clock tree missing")
	}
	busy := m.CoreDynamic(DefaultFMaxHz, 1)
	if idle >= busy {
		t.Fatalf("idle %g >= busy %g", idle, busy)
	}
	if frac := idle / busy; math.Abs(frac-0.05) > 1e-9 {
		t.Errorf("idle fraction = %g, want 0.05", frac)
	}
}

func TestLeakageGrowsWithTemperature(t *testing.T) {
	m := Default()
	l40 := m.CoreLeakage(40, true)
	l80 := m.CoreLeakage(80, true)
	if l80 <= l40 {
		t.Fatalf("leakage(80)=%g <= leakage(40)=%g", l80, l40)
	}
	// Default beta 0.017 => roughly doubles over 40 degrees.
	if ratio := l80 / l40; ratio < 1.6 || ratio > 2.4 {
		t.Errorf("leakage ratio over 40K = %g, want ~2", ratio)
	}
}

func TestLeakageGatedWhenUnpowered(t *testing.T) {
	m := Default()
	on := m.CoreLeakage(70, true)
	off := m.CoreLeakage(70, false)
	if off >= on {
		t.Fatalf("gated leakage %g >= powered leakage %g", off, on)
	}
	if math.Abs(off-0.1*on) > 1e-12 {
		t.Errorf("gated leakage = %g, want 10%% of %g", off, on)
	}
}

func TestCoreTotalComposition(t *testing.T) {
	m := Default()
	f, u, temp := DefaultFMaxHz, 0.65, 70.0
	want := m.CoreDynamic(f, u) + m.CoreLeakage(temp, true)
	if got := m.Core(f, u, temp, true); math.Abs(got-want) > 1e-15 {
		t.Errorf("Core = %g, want dyn+leak = %g", got, want)
	}
	if got := m.Core(f, u, temp, false); got != m.CoreLeakage(temp, false) {
		t.Errorf("unpowered Core = %g, want gated leakage only", got)
	}
}

func TestSharedMemStandbyFloor(t *testing.T) {
	m := Default()
	if got, want := m.SharedMem(0), 0.2*SharedMemMaxW; math.Abs(got-want) > 1e-15 {
		t.Errorf("SharedMem(0) = %g, want standby %g", got, want)
	}
	if m.SharedMem(0.5) <= m.SharedMem(0) {
		t.Error("SharedMem not increasing with activity")
	}
}

// Default returns the model the experiments use: Conf1 streaming cores
// on the 533/266/133 MHz ladder.
func Default() *Model { return NewModel(Params{Config: Conf1Streaming}) }

func TestDefaultsApplied(t *testing.T) {
	m := NewModel(Params{})
	if m.fmax != DefaultFMaxHz {
		t.Errorf("default fmax = %g", m.fmax)
	}
	if m.cfg != Conf1Streaming {
		t.Errorf("default config = %v", m.cfg)
	}
}

// Property: core dynamic power is monotone in utilization and frequency,
// and always within [0, Pmax·scale].
func TestCoreDynamicMonotoneProperty(t *testing.T) {
	m := Default()
	f := func(fu uint16, uu uint16) bool {
		fHz := float64(fu) / 65535 * DefaultFMaxHz
		u := float64(uu) / 65535
		p := m.CoreDynamic(fHz, u)
		if p < 0 {
			return false
		}
		// Monotone in utilization at fixed f.
		if u < 0.99 && m.CoreDynamic(fHz, u+0.01) < p-1e-12 {
			return false
		}
		// Monotone in frequency at fixed u.
		if fHz < 0.99*DefaultFMaxHz && m.CoreDynamic(fHz+0.01*DefaultFMaxHz, u) < p-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: utilization is clamped, so out-of-range values cannot produce
// power above the max or below idle.
func TestUtilizationClampProperty(t *testing.T) {
	m := Default()
	f := func(u float64) bool {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return true
		}
		p := m.CoreDynamic(DefaultFMaxHz, u)
		lo := m.CoreDynamic(DefaultFMaxHz, 0)
		hi := m.CoreDynamic(DefaultFMaxHz, 1)
		return p >= lo-1e-12 && p <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The paper's Figure 1 premise: with DVFS, running work at a lower
// frequency/voltage consumes less energy even though it takes longer.
// Energy per unit work = P(f)/f must be monotone increasing in f.
func TestEnergyPerWorkFavorsLowFrequency(t *testing.T) {
	m := Default()
	prev := -1.0
	for _, f := range []float64{133e6, 266e6, 533e6} {
		// Energy per cycle at full utilization (dynamic only).
		epc := m.CoreDynamic(f, 1) / f
		if prev > 0 && epc <= prev {
			t.Fatalf("energy/cycle not increasing with f at %g", f)
		}
		prev = epc
	}
}
