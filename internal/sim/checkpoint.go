package sim

import (
	"errors"

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
	var c ckpt.Codec
	e.ckpt(&c)
	return &Checkpoint{data: c.Bytes()}, nil
}

// Bytes returns the memory the checkpoint holds.
func (cp *Checkpoint) Bytes() int { return len(cp.data) }

// Restore replaces the engine's mutable state with the one cp holds.
// The engine must have been built like the one cp was taken from (same
// scenario, options and engine configuration); its policy and overshoot
// threshold are its own, and it must not be tracing. Shapes are
// checked — core, node, task and queue counts — not the
// configuration. After an error the engine is in an undefined state and
// must be discarded.
func (e *Engine) Restore(cp *Checkpoint) error {
	if e.rec != nil {
		return errTraced
	}
	c := ckpt.NewReader(cp.data)
	e.ckpt(c)
	return c.Done()
}

// ckpt writes or reads the engine's state and then every component's.
func (e *Engine) ckpt(c *ckpt.Codec) {
	c.Int64(&e.ticks)
	c.Int64s(e.pendTicks)
	c.Floats(e.pendBusy)
	c.Int64(&e.lastSharedFlush)
	for _, ev := range []*evCache{&e.evSrc, &e.evSink, &e.evMigr} {
		c.Float(&ev.at)
		c.Int64(&ev.abs)
	}
	if c.Reading() {
		e.now = float64(e.ticks) * TickS
		for i := range e.cal {
			e.cal[i] = coreCal{ring: e.cal[i].ring[:0], dirty: true, slot: -1}
		}
		e.heap = e.heap[:0]
		e.dirtyList = e.dirtyList[:len(e.cal)]
	}
	// Every core is dirty; the list is the calendar's rescan order.
	c.Ints(e.dirtyList)
	p := &e.prof
	for _, n := range []*int64{&p.PlainTicks, &p.MacroSteps, &p.MacroTicks, &p.Scans, &p.ZeroScans,
		&p.Rescans, &p.QuietCores, &p.FullCores, &p.FrameBegins, &p.FrameFinishes} {
		c.Int64(n)
	}
	c.Int64(&e.measureStartMisses)
	c.Int64(&e.measureStartConsumed)
	c.Int(&e.measureStartMigr)
	c.Float(&e.measureStartBytes)
	c.Float(&e.measureStartTime)
	c.Float(&e.overThresholdS)
	e.temps.Ckpt(c)
	e.plat.Ckpt(c)
	e.graph.Ckpt(c)
	e.sch.Ckpt(c)
	e.migr.Ckpt(c, e.graph.Tasks())
}
