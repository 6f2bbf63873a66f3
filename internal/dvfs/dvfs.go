// Package dvfs implements the dynamic voltage/frequency scaling layer
// the paper's thermal balancing policy sits on top of (Section 3.1:
// "in our implementation MiGra lies on top of a DVFS policy; thus, the
// power consumption of a task is proportional to its load").
//
// Frequencies form a discrete ladder; the governor picks, per core, the
// lowest level whose capacity covers the sum of the full-speed-
// equivalent (FSE) loads of the tasks mapped there. With the paper's
// ladder {533, 266, 133} MHz this reproduces Table 2 exactly: core 1
// with 65 % FSE runs at 533 MHz, cores 2 and 3 at 266 MHz.
package dvfs

import (
	"errors"
	"fmt"
	"sort"

	"thermbal/internal/ckpt"
	"thermbal/internal/power"
)

// Ladder is an ordered set of frequency levels in Hz (ascending).
type Ladder struct {
	levels []float64
}

// DefaultLevels is the experiment ladder: 533/266/133 MHz, matching the
// frequencies of the paper's Table 2 plus a deep-idle level. The top is
// the power model's maximum frequency.
var DefaultLevels = []float64{133e6, 266e6, power.DefaultFMaxHz}

// NewLadder builds a ladder from the given levels (any order, must be
// positive and distinct).
func NewLadder(levels []float64) (*Ladder, error) {
	if len(levels) == 0 {
		return nil, errors.New("dvfs: empty ladder")
	}
	ls := append([]float64(nil), levels...)
	sort.Float64s(ls)
	for i, f := range ls {
		if f <= 0 {
			return nil, fmt.Errorf("dvfs: non-positive frequency %g", f)
		}
		if i > 0 && ls[i] == ls[i-1] {
			return nil, fmt.Errorf("dvfs: duplicate frequency %g", f)
		}
	}
	return &Ladder{levels: ls}, nil
}

// Default returns the 533/266/133 MHz ladder.
func Default() *Ladder {
	l, err := NewLadder(DefaultLevels)
	if err != nil {
		panic(err) // static levels cannot fail
	}
	return l
}

// Max returns the top frequency (the FSE reference).
func (l *Ladder) Max() float64 { return l.levels[len(l.levels)-1] }

// Min returns the lowest frequency.
func (l *Ladder) Min() float64 { return l.levels[0] }

// LevelFor returns the lowest frequency f such that the total FSE load
// (fractions of the *maximum* frequency, summed over the core's tasks)
// fits: fseTotal*Max <= f. Loads above 1 saturate at Max.
//
// A small guard band (default 0) can be added by the governor to avoid
// running levels at 100 % utilisation.
func (l *Ladder) LevelFor(fseTotal float64) float64 {
	if fseTotal <= 0 {
		return l.Min()
	}
	need := float64(fseTotal * l.Max())
	for _, f := range l.levels {
		if f >= need-1e-9 {
			return f
		}
	}
	return l.Max()
}

// UtilizationAt converts an FSE load into the utilisation the core sees
// when running at frequency f (1.0 = saturated).
func (l *Ladder) UtilizationAt(fse, f float64) float64 {
	if f <= 0 {
		return 0
	}
	return fse * l.Max() / f
}

// Governor assigns a frequency per core from the summed FSE loads.
// It also records level-switch counts (a DVFS transition has a small
// cost in reality; the statistic validates policies do not thrash).
type Governor struct {
	ladder *Ladder
	// GuardBand inflates loads before level selection, e.g. 0.05 keeps
	// 5 % headroom. The experiments use 0 (the paper's mapping runs
	// core 2 at ~80 % utilisation with no headroom).
	GuardBand float64

	freq     []float64
	switches int
}

// NewGovernor creates a governor for n cores, all starting at the
// minimum level.
func NewGovernor(ladder *Ladder, n int) *Governor {
	g := &Governor{ladder: ladder, freq: make([]float64, n)}
	for i := range g.freq {
		g.freq[i] = ladder.Min()
	}
	return g
}

// Ladder returns the governor's frequency ladder.
func (g *Governor) Ladder() *Ladder { return g.ladder }

// Frequency returns the current frequency of core c.
func (g *Governor) Frequency(c int) float64 { return g.freq[c] }

// Update recomputes the level of core c for the given total FSE load and
// returns the chosen frequency.
func (g *Governor) Update(c int, fseTotal float64) float64 {
	want := g.ladder.LevelFor(fseTotal * (1 + g.GuardBand))
	if want != g.freq[c] {
		g.freq[c] = want
		g.switches++
	}
	return want
}

// Set forces core c to frequency f (used by Stop&Go style policies that
// override the governor; f must be a ladder level or 0 for stopped).
func (g *Governor) Set(c int, f float64) error {
	if f == 0 {
		if g.freq[c] != 0 {
			g.freq[c] = 0
			g.switches++
		}
		return nil
	}
	for _, lv := range g.ladder.levels {
		if lv == f {
			if g.freq[c] != f {
				g.freq[c] = f
				g.switches++
			}
			return nil
		}
	}
	return fmt.Errorf("dvfs: %g Hz is not a ladder level", f)
}

// Ckpt writes or reads every core's frequency and the switch count.
func (g *Governor) Ckpt(c *ckpt.Codec) {
	c.Floats(g.freq)
	c.Int(&g.switches)
}

// Switches returns the number of level transitions so far.
func (g *Governor) Switches() int { return g.switches }
