package mpsoc

import (
	"math"
	"testing"

	"thermbal/internal/floorplan"
	"thermbal/internal/thermal"
)

func newPlat(t *testing.T) *Platform {
	t.Helper()
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDefaults(t *testing.T) {
	p := newPlat(t)
	if p.NumCores() != 3 {
		t.Fatalf("NumCores = %d", p.NumCores())
	}
	for c := 0; c < 3; c++ {
		if !p.Powered(c) {
			t.Errorf("core %d not powered initially", c)
		}
		if p.Frequency(c) != 133e6 {
			t.Errorf("core %d initial freq = %g, want ladder min", c, p.Frequency(c))
		}
		if p.CoreTemp(c) != 25 {
			t.Errorf("core %d initial temp = %g, want ambient", c, p.CoreTemp(c))
		}
	}
}

func TestNewRejectsCorelessFloorplan(t *testing.T) {
	fp := floorplan.MustNew([]floorplan.Block{
		{Name: "mem", Kind: floorplan.KindSharedMem, CoreID: -1, W: 1e-3, H: 1e-3},
	})
	if _, err := New(Config{Floorplan: fp}); err == nil {
		t.Error("floorplan without cores accepted")
	}
}

func TestSetPoweredGatesFrequency(t *testing.T) {
	p := newPlat(t)
	p.Gov.Update(0, 0.65)
	if p.Frequency(0) != 533e6 {
		t.Fatalf("freq = %g", p.Frequency(0))
	}
	p.SetPowered(0, false, 0)
	if p.Powered(0) || p.Frequency(0) != 0 {
		t.Error("stop did not gate the core")
	}
	// Redundant stop is a no-op.
	p.SetPowered(0, false, 0)
	p.SetPowered(0, true, 0.65)
	if !p.Powered(0) || p.Frequency(0) != 533e6 {
		t.Errorf("restart state: powered=%v freq=%g", p.Powered(0), p.Frequency(0))
	}
}

func TestAccountAndFlushWindow(t *testing.T) {
	p := newPlat(t)
	p.Gov.Update(0, 0.65) // 533 MHz
	const tick = 100e-6
	const window = 10e-3
	// 100 ticks of 65% busy on core 0, idle elsewhere.
	for i := 0; i < 100; i++ {
		for c := 0; c < 3; c++ {
			busy := 0.0
			if c == 0 {
				busy = 0.65 * p.Frequency(0) * tick
			}
			p.AccountSpan(c, tick, busy)
		}
		p.AccountShared(tick)
	}
	util, err := p.FlushWindow(window)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(util[0]-0.65) > 1e-9 {
		t.Errorf("core0 window utilization = %g, want 0.65", util[0])
	}
	if util[1] != 0 {
		t.Errorf("core1 utilization = %g, want 0", util[1])
	}
	if p.TotalEnergyJ <= 0 {
		t.Error("no energy accumulated")
	}
	// The heated core must warm above ambient after the flush.
	if p.CoreTemp(0) <= 25 {
		t.Errorf("core0 temp = %g after heating window", p.CoreTemp(0))
	}
	// Window accumulators reset: an immediate flush yields zero power.
	e0 := p.TotalEnergyJ
	if _, err := p.FlushWindow(window); err != nil {
		t.Fatal(err)
	}
	if p.TotalEnergyJ != e0 {
		t.Error("energy accrued from empty window")
	}
}

func TestAccountSpanClampsUtilization(t *testing.T) {
	p := newPlat(t)
	p.Gov.Update(0, 0.65)
	// Report more busy cycles than capacity: power must not explode.
	p.AccountSpan(0, 100e-6, 1e12)
	util, err := p.FlushWindow(10e-3)
	if err != nil {
		t.Fatal(err)
	}
	_ = util
	if p.TotalEnergyJ > 1e-3 {
		t.Errorf("energy %g J from one clamped tick", p.TotalEnergyJ)
	}
}

func TestHighPerformancePlatform(t *testing.T) {
	p, err := New(Config{Package: thermal.HighPerformance()})
	if err != nil {
		t.Fatal(err)
	}
	mob, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The high-performance package scales every capacitance down by
	// its speed-up over the default mobile package.
	got := mob.Thermal.Net.View().Capacitance(0) / p.Thermal.Net.View().Capacitance(0)
	if want := thermal.HighPerformance().SpeedupVs(thermal.MobileEmbedded()); math.Abs(got-want) > 1e-9*want {
		t.Errorf("capacitance ratio = %g, want %g", got, want)
	}
}
