package sim

import (
	"testing"

	"thermbal/internal/stream"
)

// Graph exposes the streaming application.
func (e *Engine) Graph() *stream.Graph { return e.graph }

// Now returns the current simulation time: exactly Ticks()*TickS.
func (e *Engine) Now() float64 { return e.now }

// fullScanHorizon is the horizon the per-core calendar replaced: the
// global bounds plus a fresh rescan of every core, computed read-only
// from the engine's state. Each core's run queue is read in the order
// PickNext would visit it, which for a clean core the calendar has
// allocated since its rescan lies past the scheduler's stored cursor.
func fullScanHorizon(e *Engine, maxSpan int64) int64 {
	h := maxSpan
	if e.plat.Bus.Active() > 0 {
		if h = min(h, e.plat.Bus.SafeTicks(e.cfg.TickS)); h <= 0 {
			return 0
		}
	}
	h = min(h,
		e.ticksUntil(e.graph.NextSourceEmissionAt())-1,
		e.ticksUntil(e.graph.NextSinkDeadlineAt())-1,
		e.ticksUntil(e.migr.NextPhaseTransitionAt())-1)
	if h <= 0 {
		return 0
	}
	for c := 0; c < e.plat.NumCores(); c++ {
		f := e.plat.Frequency(c)
		budget := f * e.cfg.TickS
		if f <= 0 || budget <= 1e-6 {
			continue
		}
		var ring []int
		for _, ti := range pickOrder(e, c) {
			t := e.graph.Task(ti)
			if !t.Runnable() {
				continue
			}
			if t.InFlight {
				ring = append(ring, ti)
			} else if e.graph.CanFire(ti) {
				return 0
			}
		}
		m := int64(len(ring))
		for p, ti := range ring {
			safe := max(int64(e.graph.Task(ti).Remaining()/budget)-1, 0)
			h = min(h, int64(p)+safe*m)
		}
	}
	return h
}

// pickOrder is core c's run queue in the order PickNext would visit it.
func pickOrder(e *Engine, c int) []int {
	order := e.sch.OrderFrom(c, nil)
	cs := &e.cal[c]
	if !cs.moved {
		return order
	}
	last := cs.ring[(cs.next+len(cs.ring)-1)%len(cs.ring)]
	for k, ti := range order {
		if ti == last {
			return append(append([]int(nil), order[k+1:]...), order[:k+1]...)
		}
	}
	panic("sim: calendar ring task is not on its core")
}

// CheckHorizons makes every engine compare each horizon the calendar
// computes with fullScanHorizon until t ends, reporting mismatches on
// t. The returned function counts the groups checked so far.
func CheckHorizons(t testing.TB) (checked func() int64) {
	var groups, bad int64
	checkHorizon = func(e *Engine, maxSpan, h int64) {
		groups++
		if want := fullScanHorizon(e, maxSpan); want != h {
			if bad++; bad <= 5 {
				t.Errorf("tick %d: calendar horizon %d, full scan %d (cap %d)", e.ticks, h, want, maxSpan)
			}
		}
	}
	t.Cleanup(func() { checkHorizon = nil })
	return func() int64 { return groups }
}

// Data returns the checkpoint's encoding.
func (cp *Checkpoint) Data() []byte { return cp.data }
