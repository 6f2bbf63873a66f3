package dvfs

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewLadderValidation(t *testing.T) {
	if _, err := NewLadder(nil); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := NewLadder([]float64{100e6, -1}); err == nil {
		t.Error("negative level accepted")
	}
	if _, err := NewLadder([]float64{100e6, 100e6}); err == nil {
		t.Error("duplicate level accepted")
	}
	l, err := NewLadder([]float64{533e6, 133e6, 266e6})
	if err != nil {
		t.Fatal(err)
	}
	lv := l.levels
	if lv[0] != 133e6 || lv[2] != 533e6 {
		t.Errorf("levels not sorted: %v", lv)
	}
}

func TestDefaultLadder(t *testing.T) {
	l := Default()
	if l.Max() != 533e6 {
		t.Errorf("Max = %g", l.Max())
	}
	if l.Min() != 133e6 {
		t.Errorf("Min = %g", l.Min())
	}
	if len(l.levels) != 3 {
		t.Errorf("levels = %v", l.levels)
	}
}

// The ladder must reproduce the paper's Table 2 frequency assignment
// from the task FSE loads.
func TestTable2FrequencyAssignment(t *testing.T) {
	l := Default()
	// Core 1: BPF1 36.7% + DEMOD 28.3% at 533 MHz are already FSE.
	if got := l.LevelFor(0.367 + 0.283); got != 533e6 {
		t.Errorf("core1 level = %g, want 533 MHz", got)
	}
	// Core 2: BPF2 60.9% + SUM 6.2% at 266 MHz -> FSE halves.
	fse2 := (0.609 + 0.062) * 266.0 / 533.0
	if got := l.LevelFor(fse2); got != 266e6 {
		t.Errorf("core2 level = %g, want 266 MHz", got)
	}
	// Core 3: BPF3 60.9% + LPF 18.8% at 266 MHz.
	fse3 := (0.609 + 0.188) * 266.0 / 533.0
	if got := l.LevelFor(fse3); got != 266e6 {
		t.Errorf("core3 level = %g, want 266 MHz", got)
	}
}

func TestLevelForBoundaries(t *testing.T) {
	l := Default()
	if got := l.LevelFor(0); got != 133e6 {
		t.Errorf("LevelFor(0) = %g, want min", got)
	}
	if got := l.LevelFor(-0.5); got != 133e6 {
		t.Errorf("LevelFor(neg) = %g, want min", got)
	}
	if got := l.LevelFor(1.0); got != 533e6 {
		t.Errorf("LevelFor(1) = %g, want max", got)
	}
	if got := l.LevelFor(2.5); got != 533e6 {
		t.Errorf("LevelFor(overload) = %g, want max (saturate)", got)
	}
	// Exactly at a level boundary: 266/533 of full load fits 266 MHz.
	if got := l.LevelFor(266.0 / 533.0); got != 266e6 {
		t.Errorf("LevelFor(boundary) = %g, want 266 MHz", got)
	}
}

func TestUtilizationAt(t *testing.T) {
	l := Default()
	if got := l.UtilizationAt(0.5, 533e6); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("util at fmax = %g", got)
	}
	if got := l.UtilizationAt(0.25, 266.5e6); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("util at fmax/2 = %g", got)
	}
	if got := l.UtilizationAt(0.5, 0); got != 0 {
		t.Errorf("util at f=0 = %g", got)
	}
}

func TestGovernorUpdateAndSwitches(t *testing.T) {
	g := NewGovernor(Default(), 3)
	if g.Frequency(0) != 133e6 {
		t.Errorf("initial freq = %g", g.Frequency(0))
	}
	g.Update(0, 0.65)
	if g.Frequency(0) != 533e6 {
		t.Errorf("after update = %g", g.Frequency(0))
	}
	if g.Switches() != 1 {
		t.Errorf("switches = %d, want 1", g.Switches())
	}
	// Same load: no switch.
	g.Update(0, 0.65)
	if g.Switches() != 1 {
		t.Errorf("redundant update counted: %d", g.Switches())
	}
	if fs := g.freq; len(fs) != 3 || fs[0] != 533e6 || fs[1] != 133e6 {
		t.Errorf("freq = %v", fs)
	}
}

func TestGovernorGuardBand(t *testing.T) {
	g := NewGovernor(Default(), 1)
	g.GuardBand = 0.10
	// 0.47 FSE alone fits 266 MHz (0.47 < 0.499) but with 10% guard it
	// needs 0.517 -> 533 MHz.
	g.Update(0, 0.47)
	if g.Frequency(0) != 533e6 {
		t.Errorf("guard band ignored: %g", g.Frequency(0))
	}
}

func TestGovernorSet(t *testing.T) {
	g := NewGovernor(Default(), 2)
	if err := g.Set(0, 266e6); err != nil {
		t.Fatal(err)
	}
	if g.Frequency(0) != 266e6 {
		t.Error("Set did not apply")
	}
	if err := g.Set(0, 0); err != nil {
		t.Fatal(err)
	}
	if g.Frequency(0) != 0 {
		t.Error("Set(0) did not stop the core")
	}
	if err := g.Set(0, 123); err == nil {
		t.Error("Set accepted off-ladder frequency")
	}
	// Redundant stop does not count a switch.
	before := g.Switches()
	if err := g.Set(0, 0); err != nil {
		t.Fatal(err)
	}
	if g.Switches() != before {
		t.Error("redundant stop counted as switch")
	}
}

// Property: LevelFor always returns a ladder level with capacity for the
// load (unless saturated), and is monotone in the load.
func TestLevelForProperties(t *testing.T) {
	l := Default()
	f := func(a, b uint16) bool {
		la := float64(a) / 65535
		lb := float64(b) / 65535
		if la > lb {
			la, lb = lb, la
		}
		fa, fb := l.LevelFor(la), l.LevelFor(lb)
		if fa > fb {
			return false // monotonicity
		}
		// Capacity: chosen level covers the load unless saturated.
		if fa < la*l.Max()-1e-6 && fa != l.Max() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
