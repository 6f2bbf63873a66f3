// Package power implements the component power models of the emulated
// MPSoC, anchored to the industrial 90 nm figures of the paper's Table 1:
//
//	RISC32-streaming (Conf1)   0.5 W max @ 500 MHz
//	RISC32-ARM11     (Conf2)   0.27 W max
//	DCache 8kB/2way            43 mW
//	ICache 8kB/DM              11 mW
//	Memory 32kB                15 mW
//
// Dynamic power follows the usual CMOS model P = a·C·V²·f with voltage
// scaled along the DVFS ladder (V ∝ f to first order), so active power
// scales roughly cubically with frequency. A temperature-dependent
// exponential leakage term models the sub-threshold component the paper
// cites as the reliability motivation for thermal balancing.
package power

import (
	"fmt"
	"math"
)

// Table 1 anchor figures (watts) at the reference frequency.
const (
	// RefFrequencyHz is the frequency the Table 1 figures refer to.
	RefFrequencyHz = 500e6

	// RISC32StreamingMaxW is Conf1: the streaming RISC32 core at 100 %
	// activity at RefFrequencyHz and nominal voltage.
	RISC32StreamingMaxW = 0.5
	// RISC32ARM11MaxW is Conf2: the ARM11-class RISC32 core.
	RISC32ARM11MaxW = 0.27
	// DCacheMaxW is the 8 kB 2-way data cache at full activity.
	DCacheMaxW = 0.043
	// ICacheMaxW is the 8 kB direct-mapped instruction cache.
	ICacheMaxW = 0.011
	// SharedMemMaxW is the 32 kB on-chip memory at full activity.
	SharedMemMaxW = 0.015
)

// CoreConfig selects between the two core configurations of Table 1.
type CoreConfig int

const (
	// Conf1Streaming is the RISC32-streaming configuration (0.5 W max).
	Conf1Streaming CoreConfig = iota
	// Conf2ARM11 is the RISC32-ARM11 configuration (0.27 W max).
	Conf2ARM11
)

// String names the configuration as in Table 1.
func (c CoreConfig) String() string {
	switch c {
	case Conf1Streaming:
		return "RISC32-streaming (Conf1)"
	case Conf2ARM11:
		return "RISC32-ARM11 (Conf2)"
	default:
		return fmt.Sprintf("CoreConfig(%d)", int(c))
	}
}

// MaxPowerW returns the Table 1 maximum power for the configuration.
func (c CoreConfig) MaxPowerW() float64 {
	if c == Conf2ARM11 {
		return RISC32ARM11MaxW
	}
	return RISC32StreamingMaxW
}

// Model computes block power from operating state. The zero value is not
// usable; construct with NewModel.
type Model struct {
	cfg CoreConfig

	// fmax is the top of the DVFS ladder in Hz.
	fmax float64
	// vmax, vmin bound the linear voltage/frequency ladder.
	vmax, vmin float64

	// idleFrac is the fraction of max dynamic power burnt by a clocked
	// but idle core (clock tree and static logic activity).
	idleFrac float64

	// leakRef is leakage power at tempRef for a core block, in watts.
	leakRef float64
	// leakBeta is the exponential temperature coefficient (1/K).
	leakBeta float64
	// tempRef is the leakage reference temperature in °C.
	tempRef float64
}

// Params configures a Model. Zero fields take defaults.
type Params struct {
	Config CoreConfig
	// FMaxHz is the maximum core frequency (default 533 MHz, the top
	// level of the paper's Table 2 ladder).
	FMaxHz float64
	// VMax, VMin bound the DVFS voltage ladder (defaults 1.2 V, 0.8 V,
	// typical for 90 nm).
	VMax, VMin float64
	// IdleFraction is idle power as a fraction of max dynamic power
	// (default 0.05).
	IdleFraction float64
	// LeakRefW is core leakage at LeakRefTempC (default 8 % of max power).
	LeakRefW float64
	// LeakBeta is the leakage exponential coefficient per kelvin
	// (default 0.017, roughly doubling every 40 °C).
	LeakBeta float64
	// LeakRefTempC is the leakage reference temperature (default 60 °C).
	LeakRefTempC float64
}

// DefaultFMaxHz is the top DVFS level used throughout the reproduction
// (Table 2 runs core 1 at 533 MHz).
const DefaultFMaxHz = 533e6

// NewModel builds a power model from params, applying defaults.
func NewModel(p Params) *Model {
	m := &Model{
		cfg:      p.Config,
		fmax:     p.FMaxHz,
		vmax:     p.VMax,
		vmin:     p.VMin,
		idleFrac: p.IdleFraction,
		leakRef:  p.LeakRefW,
		leakBeta: p.LeakBeta,
		tempRef:  p.LeakRefTempC,
	}
	if m.fmax <= 0 {
		m.fmax = DefaultFMaxHz
	}
	if m.vmax <= 0 {
		m.vmax = 1.2
	}
	if m.vmin <= 0 {
		m.vmin = 0.8
	}
	if m.idleFrac <= 0 {
		m.idleFrac = 0.05
	}
	if m.leakRef <= 0 {
		m.leakRef = 0.08 * m.cfg.MaxPowerW()
	}
	if m.leakBeta <= 0 {
		m.leakBeta = 0.017
	}
	if m.tempRef == 0 {
		m.tempRef = 60
	}
	return m
}

// Voltage returns the supply voltage at frequency f on the linear ladder.
// Frequencies at or below zero return VMin (core stopped / clock gated).
func (m *Model) Voltage(fHz float64) float64 {
	if fHz <= 0 {
		return m.vmin
	}
	if fHz >= m.fmax {
		return m.vmax
	}
	return m.vmin + (m.vmax-m.vmin)*(fHz/m.fmax)
}

// scaleDyn returns the dynamic scaling factor (f/fref)·(V/Vref)² relative
// to the Table 1 reference operating point.
func (m *Model) scaleDyn(fHz float64) float64 {
	if fHz <= 0 {
		return 0
	}
	vRef := m.Voltage(RefFrequencyHz)
	v := m.Voltage(fHz)
	return (fHz / RefFrequencyHz) * (v * v) / (vRef * vRef)
}

// CoreDynamic returns the dynamic power of a core running at frequency
// fHz with the given utilization (busy fraction in [0,1]). A stopped core
// (fHz <= 0) consumes nothing; an idle clocked core consumes the idle
// fraction.
func (m *Model) CoreDynamic(fHz, utilization float64) float64 {
	if fHz <= 0 {
		return 0
	}
	u := clamp01(utilization)
	pmax := m.cfg.MaxPowerW() * m.scaleDyn(fHz)
	return pmax * (m.idleFrac + (1-m.idleFrac)*u)
}

// CoreLeakage returns the temperature-dependent leakage power of a core
// at die temperature tempC. Leakage flows whenever the core is powered,
// regardless of activity; a stopped (power-gated) core leaks a residual
// 10 % through always-on rails.
func (m *Model) CoreLeakage(tempC float64, powered bool) float64 {
	l := m.leakRef * math.Exp(m.leakBeta*(tempC-m.tempRef))
	if !powered {
		return 0.1 * l
	}
	return l
}

// Core returns total core power: dynamic + leakage.
func (m *Model) Core(fHz, utilization, tempC float64, powered bool) float64 {
	if !powered {
		return m.CoreLeakage(tempC, false)
	}
	return m.CoreDynamic(fHz, utilization) + m.CoreLeakage(tempC, true)
}

// ICache returns instruction-cache power at frequency fHz with the given
// access activity (fraction of cycles with an access).
func (m *Model) ICache(fHz, activity float64) float64 {
	return ICacheMaxW * m.scaleDyn(fHz) * clamp01(activity)
}

// DCache returns data-cache power at frequency fHz with the given access
// activity.
func (m *Model) DCache(fHz, activity float64) float64 {
	return DCacheMaxW * m.scaleDyn(fHz) * clamp01(activity)
}

// SharedMem returns shared-memory power for the given access activity.
// The shared memory runs on the bus clock, which does not scale with the
// core DVFS ladder, so only activity modulates it. A floor of 20 % models
// refresh/standby power.
func (m *Model) SharedMem(activity float64) float64 {
	const standby = 0.2
	return SharedMemMaxW * (standby + (1-standby)*clamp01(activity))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
