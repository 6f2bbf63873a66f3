package sim

import (
	"errors"
	"fmt"

	"thermbal/internal/ckpt"
)

// Checkpoint is a copy of an engine's mutable state at one tick:
// temperatures, task, frame and queue progress, source and sink
// counters, scheduler cursors, DVFS levels, bus and migration state,
// energy accumulators and pending spans, the horizon calendar's
// inputs, the Profile and the measurement window. It is one flat, pointer-free byte slice (package ckpt)
// that no engine shares and nothing modifies, so one checkpoint may be
// restored into any number of engines, concurrently.
//
// The policy's own state is not part of it. Every policy starts fresh
// and is first consulted at PolicyStartS, so a checkpoint taken at or
// before WarmupEnd holds everything a run's continuation depends on.
//
// A tracing engine (Config.RecordTrace) has no checkpoint: its
// recorder's timeline is not engine state a continuation needs, and
// copying it would make a checkpoint grow with the run.
type Checkpoint struct {
	data []byte
}

var errTraced = errors.New("sim: a tracing engine has no checkpoint")

// Checkpoint copies the engine's mutable state. Taking it invalidates
// the event calendar exactly as the next RunTo would, so the engine
// continues bit-for-bit as if no checkpoint had been taken. A tracing
// engine returns an error.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	if e.rec != nil {
		return nil, errTraced
	}
	e.settle()
	var w ckpt.Writer
	w.Float(e.cfg.TickS)
	w.Int64(e.sensorEvery)
	w.Int64(e.ticks)
	w.Int64s(e.pendTicks)
	w.Floats(e.pendBusy)
	w.Int64(e.lastSharedFlush)
	for _, c := range []*evCache{&e.evSrc, &e.evSink, &e.evMigr} {
		w.Float(c.at)
		w.Int64(c.abs)
	}
	// Every core is dirty; the list is the calendar's rescan order.
	w.Ints(e.dirtyList)
	p := &e.prof
	for _, n := range []int64{p.PlainTicks, p.MacroSteps, p.MacroTicks, p.Scans, p.ZeroScans,
		p.Rescans, p.QuietCores, p.FullCores, p.FrameBegins, p.FrameFinishes} {
		w.Int64(n)
	}
	w.Int64(e.measureStartMisses)
	w.Int64(e.measureStartConsumed)
	w.Int(e.measureStartMigr)
	w.Float(e.measureStartBytes)
	w.Bool(e.measureStarted)
	w.Float(e.measureStartTime)
	w.Bool(e.policyActive)
	w.Float(e.overThresholdS)
	e.temps.Checkpoint(&w)
	e.plat.Checkpoint(&w)
	e.graph.Checkpoint(&w)
	e.sch.Checkpoint(&w)
	e.migr.Checkpoint(&w)
	return &Checkpoint{data: w.Bytes()}, nil
}

// Bytes returns the memory the checkpoint holds.
func (cp *Checkpoint) Bytes() int { return len(cp.data) }

// Restore replaces the engine's mutable state with the one cp holds.
// The engine must have been built like the one cp was taken from (same
// scenario, options and engine configuration); its policy and overshoot
// threshold are its own, and it must not be tracing. Shapes are
// checked — tick, sensor period, core, node, task and queue counts —
// not the configuration. After an error the engine is in an undefined
// state and must be discarded.
func (e *Engine) Restore(cp *Checkpoint) error {
	if e.rec != nil {
		return errTraced
	}
	r := ckpt.NewReader(cp.data)
	if tick, every := r.Float(), r.Int64(); tick != e.cfg.TickS || every != e.sensorEvery {
		return fmt.Errorf("sim: restoring a %g s tick, %d-tick sensor period checkpoint onto a %g s, %d-tick engine",
			tick, every, e.cfg.TickS, e.sensorEvery)
	}
	e.ticks = r.Int64()
	e.now = float64(e.ticks) * e.cfg.TickS
	r.Int64s(e.pendTicks)
	r.Floats(e.pendBusy)
	e.lastSharedFlush = r.Int64()
	for _, c := range []*evCache{&e.evSrc, &e.evSink, &e.evMigr} {
		c.at, c.abs = r.Float(), r.Int64()
	}
	for c := range e.cal {
		e.cal[c] = coreCal{ring: e.cal[c].ring[:0], dirty: true, slot: -1}
	}
	e.heap = e.heap[:0]
	e.dirtyList = e.dirtyList[:len(e.cal)]
	r.Ints(e.dirtyList)
	p := &e.prof
	for _, n := range []*int64{&p.PlainTicks, &p.MacroSteps, &p.MacroTicks, &p.Scans, &p.ZeroScans,
		&p.Rescans, &p.QuietCores, &p.FullCores, &p.FrameBegins, &p.FrameFinishes} {
		*n = r.Int64()
	}
	e.measureStartMisses, e.measureStartConsumed, e.measureStartMigr = r.Int64(), r.Int64(), r.Int()
	e.measureStartBytes, e.measureStarted, e.measureStartTime = r.Float(), r.Bool(), r.Float()
	e.policyActive, e.overThresholdS = r.Bool(), r.Float()
	e.temps.Restore(r)
	e.plat.Restore(r)
	e.graph.Restore(r)
	e.sch.Restore(r)
	e.migr.Restore(r, e.graph.Tasks())
	return r.Done()
}
