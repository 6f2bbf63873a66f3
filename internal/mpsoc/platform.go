// Package mpsoc assembles the emulated platform: the floorplan, the
// thermal model, the power model, the shared bus, the DVFS governor and
// the per-core power state — the hardware half of the paper's emulation
// framework (Section 4). The simulation engine (internal/sim) drives it.
package mpsoc

import (
	"fmt"

	"thermbal/internal/bus"
	"thermbal/internal/ckpt"
	"thermbal/internal/dvfs"
	"thermbal/internal/floorplan"
	"thermbal/internal/power"
	"thermbal/internal/thermal"
)

// Platform is the hardware state of the emulated MPSoC.
type Platform struct {
	FP      *floorplan.Floorplan
	Thermal *thermal.Model
	Power   *power.Model
	Bus     *bus.Bus
	Gov     *dvfs.Governor

	powered []bool

	// Per-core floorplan block indices.
	coreBlk, icacheBlk, dcacheBlk []int
	memBlk                        int

	// Per-block accumulated energy over the current sensor window (J).
	energyWin []float64
	// Total energy since construction (J).
	TotalEnergyJ float64
	// Per-core busy cycles over the current sensor window.
	busyWin []float64
	// Per-core capacity cycles (freq integrated) over the window.
	capWin []float64
	// lastBusBusy snapshots bus busy-seconds to derive per-tick activity.
	lastBusBusy float64

	// powerBuf is the per-block power vector handed to the thermal model.
	powerBuf []float64
	// utilBuf backs FlushWindow's returned utilization vector (reused
	// across windows so the steady-state loop stays allocation-free).
	utilBuf []float64
}

// Config selects the platform components.
type Config struct {
	// Floorplan defaults to the paper's 3-core streaming MPSoC.
	Floorplan *floorplan.Floorplan
	// Package defaults to thermal.MobileEmbedded().
	Package thermal.Package
	// PowerParams defaults to the Conf1 streaming core model.
	PowerParams power.Params
	// BusParams defaults to the middleware-effective 4 MB/s bus.
	BusParams bus.Params
	// Ladder defaults to 533/266/133 MHz.
	Ladder *dvfs.Ladder
}

// New assembles a platform.
func New(cfg Config) (*Platform, error) {
	if cfg.Floorplan == nil {
		cfg.Floorplan = floorplan.Default3Core()
	}
	if cfg.Package.Name == "" {
		cfg.Package = thermal.MobileEmbedded()
	}
	if cfg.Ladder == nil {
		cfg.Ladder = dvfs.Default()
	}
	tm, err := thermal.NewModel(cfg.Floorplan, cfg.Package)
	if err != nil {
		return nil, fmt.Errorf("mpsoc: %w", err)
	}
	n := cfg.Floorplan.NumCores()
	if n == 0 {
		return nil, fmt.Errorf("mpsoc: floorplan has no cores")
	}
	p := &Platform{
		FP:        cfg.Floorplan,
		Thermal:   tm,
		Power:     power.NewModel(cfg.PowerParams),
		Bus:       bus.New(cfg.BusParams),
		Gov:       dvfs.NewGovernor(cfg.Ladder, n),
		powered:   make([]bool, n),
		coreBlk:   make([]int, n),
		icacheBlk: make([]int, n),
		dcacheBlk: make([]int, n),
		memBlk:    -1,
		energyWin: make([]float64, len(cfg.Floorplan.Blocks)),
		busyWin:   make([]float64, n),
		capWin:    make([]float64, n),
		powerBuf:  make([]float64, len(cfg.Floorplan.Blocks)),
	}
	for i := range p.coreBlk {
		p.coreBlk[i], p.icacheBlk[i], p.dcacheBlk[i] = -1, -1, -1
	}
	for i, blk := range cfg.Floorplan.Blocks {
		switch blk.Kind {
		case floorplan.KindCore:
			p.coreBlk[blk.CoreID] = i
		case floorplan.KindICache:
			p.icacheBlk[blk.CoreID] = i
		case floorplan.KindDCache:
			p.dcacheBlk[blk.CoreID] = i
		case floorplan.KindSharedMem:
			p.memBlk = i
		}
	}
	for c := 0; c < n; c++ {
		if p.coreBlk[c] < 0 {
			return nil, fmt.Errorf("mpsoc: core %d has no core block", c)
		}
	}
	for i := range p.powered {
		p.powered[i] = true
	}
	return p, nil
}

// NumCores returns the core count.
func (p *Platform) NumCores() int { return len(p.powered) }

// Powered reports whether core c is running (false = Stop&Go shutdown).
func (p *Platform) Powered(c int) bool { return p.powered[c] }

// SetPowered gates core c on or off. Stopping a core also drops its
// frequency to 0 in the governor; restarting restores the given level.
func (p *Platform) SetPowered(c int, on bool, restoreFSE float64) {
	if p.powered[c] == on {
		return
	}
	p.powered[c] = on
	if on {
		p.Gov.Update(c, restoreFSE)
	} else {
		// Setting frequency 0 is always valid.
		if err := p.Gov.Set(c, 0); err != nil {
			panic(err) // unreachable: 0 is accepted for any ladder
		}
	}
}

// Frequency returns the operating frequency of core c (0 when stopped).
func (p *Platform) Frequency(c int) float64 {
	if !p.powered[c] {
		return 0
	}
	return p.Gov.Frequency(c)
}

// CoreTemp returns the die temperature of core c in °C.
func (p *Platform) CoreTemp(c int) float64 {
	return p.Thermal.BlockTemp(p.coreBlk[c])
}

// AccountSpan accrues a span of dt seconds of activity for core c:
// busyCycles executed out of the capacity f*dt, converting activity
// into energy on the core and cache blocks. The caller guarantees the
// core's frequency, power state and die temperature were constant over
// the span; because every component power model is affine in activity,
// one span evaluation then equals the sum of its per-tick evaluations,
// which is what lets the simulation engine account macro-steps and
// plain ticks identically.
func (p *Platform) AccountSpan(c int, dt, busyCycles float64) {
	if dt <= 0 {
		return
	}
	f := p.Frequency(c)
	capCycles := f * dt
	util := 0.0
	if capCycles > 0 {
		util = busyCycles / capCycles
		if util > 1 {
			util = 1
		}
	}
	p.busyWin[c] += busyCycles
	p.capWin[c] += capCycles

	tempC := p.CoreTemp(c)
	pw := p.Power.Core(f, util, tempC, p.powered[c])
	p.energyWin[p.coreBlk[c]] += pw * dt
	if p.icacheBlk[c] >= 0 {
		p.energyWin[p.icacheBlk[c]] += p.Power.ICache(f, util) * dt
	}
	if p.dcacheBlk[c] >= 0 {
		// Data-side activity is a fraction of instruction activity for
		// the streaming kernels.
		p.energyWin[p.dcacheBlk[c]] += p.Power.DCache(f, 0.6*util) * dt
	}
}

// AccountShared accrues shared-memory energy for a span of dt seconds
// from bus activity (the fraction of the span the bus moved data since
// the previous call). The shared-memory power model is affine in
// activity, so one call over a sensor window equals the per-tick sum.
func (p *Platform) AccountShared(dt float64) {
	if p.memBlk < 0 || dt <= 0 {
		return
	}
	busy := p.Bus.BusySeconds()
	act := (busy - p.lastBusBusy) / dt
	p.lastBusBusy = busy
	if act < 0 {
		act = 0
	} else if act > 1 {
		act = 1
	}
	p.energyWin[p.memBlk] += p.Power.SharedMem(act) * dt
}

// FlushWindow converts the accumulated window energy into the average
// power vector, advances the thermal model by windowS, and resets the
// accumulators. It returns the per-core utilization over the window;
// the returned slice is owned by the platform and overwritten by the
// next call.
func (p *Platform) FlushWindow(windowS float64) ([]float64, error) {
	for i, e := range p.energyWin {
		p.powerBuf[i] = e / windowS
		p.TotalEnergyJ += e
		p.energyWin[i] = 0
	}
	if p.utilBuf == nil {
		p.utilBuf = make([]float64, p.NumCores())
	}
	util := p.utilBuf
	for c := range util {
		if p.capWin[c] > 0 {
			util[c] = p.busyWin[c] / p.capWin[c]
		}
		p.busyWin[c] = 0
		p.capWin[c] = 0
	}
	if err := p.Thermal.Step(windowS, p.powerBuf); err != nil {
		return nil, err
	}
	return util, nil
}

// Ckpt writes or reads the platform's mutable state: node
// temperatures, power gating, the open sensor window's accumulators,
// the energy total, the DVFS levels and the bus.
func (p *Platform) Ckpt(c *ckpt.Codec) {
	net := p.Thermal.Net
	temps := net.Temperatures(nil)
	c.Floats(temps)
	if c.Reading() {
		for i, t := range temps {
			net.SetTemperature(i, t)
		}
	}
	c.Bools(p.powered)
	c.Floats(p.energyWin)
	c.Floats(p.busyWin)
	c.Floats(p.capWin)
	c.Float(&p.TotalEnergyJ)
	c.Float(&p.lastBusBusy)
	p.Gov.Ckpt(c)
	p.Bus.Ckpt(c)
}
