package sim

import (
	"fmt"
	"math"
)

// The event-horizon fast path and its per-core event calendar.
//
// Between discrete events the tick loop does strictly predictable work:
// every busy core hands its full tick budget to one round-robin task,
// idle and stopped cores only accrue accounting time, and the source,
// sink, bus and migration daemons are no-ops. horizonTicks computes how
// many upcoming ticks are guaranteed event-free; macroStep then replays
// exactly the arithmetic those ticks would have performed — the same
// Execute calls in the same round-robin order with the same budgets —
// while skipping the per-tick scheduler scans, firing checks, daemon
// polls and power-model evaluations. Results are therefore bit-for-bit
// identical with the fast path on or off (clock_test asserts this),
// and every tick that contains an event is still executed by the plain
// stepTick path.
//
// Events that terminate a horizon:
//   - a source frame emission (stream.Graph.NextSourceEmissionAt)
//   - a sink deadline, or playback starting (NextSinkDeadlineAt)
//   - the earliest possible frame completion on any core at current
//     frequencies and budgets (a frame boundary is also the migration
//     checkpoint, so freezes are covered by the same bound)
//   - a task that could begin a frame (queue state changes at BeginFrame)
//   - a migration phase transition (migrate.Manager.NextPhaseTransitionAt)
//   - the earliest possible bus transfer completion (bus.Bus.SafeTicks);
//     within that bound in-flight transfers advance by exact per-tick
//     replay (bus.Bus.AdvanceTicks), so migrations in their transfer
//     phase do not force the whole span back to plain ticking
//   - the sensor/policy boundary (capped by the caller)
//
// The per-core terms are kept incrementally. A rescan of core c records
// its allocation ring and the last absolute tick it proved event-free;
// that record stays valid until something dirties the core — a change
// to an adjacent queue, a frame boundary or freeze on it (both run it
// through runCore), a migration completing to or from it, a DVFS or
// power-state change (all a sensor update's modulation and policy
// actions can do to a core), a Run boundary. A clean core's absolute bound does not move as its ring
// executes (each allocation shortens the frame by exactly what the
// elapsed tick shortens the horizon), so clean cores sit in a min-heap
// keyed by a lower bound on any later rescan's result, and a scan only
// rescans the dirty cores plus the clean ones whose key does not clear
// the candidate horizon. The horizon is therefore exactly what a full
// rescan of every core returns, and the partition of ticks into
// macro-steps and plain ticks — which the span-exact expm accounting
// depends on — is unchanged. On plain ticks a clean core whose proven
// bound covers the tick takes the O(1) quiet path (one Execute on its
// recorded ring task) instead of runCore.

// maxHorizon bounds ticksUntil results so later additions cannot
// overflow; any real horizon is far smaller (the sensor period caps it).
const maxHorizon = int64(1) << 40

// never is the bound of a core with no event source of its own: stopped,
// idle, or too slow to execute anything.
const never = int64(math.MaxInt64)

// coreCal is one core's calendar entry: what its last rescan recorded.
type coreCal struct {
	// ring lists the core's allocatable (runnable, in-flight) tasks in
	// pick order as of the rescan; next is the ring index of the next
	// allocation. moved records that allocations since the rescan have
	// passed the scheduler's round-robin cursor, which syncCursor
	// brings up to date before anything reads it.
	ring  []int
	next  int
	moved bool
	// budget is the cycles one tick allocates at the rescan's frequency.
	budget float64
	// quietTo is the last absolute tick the rescan proved event-free:
	// every allocation up to it continues an in-flight frame.
	quietTo int64
	// key orders the calendar heap. It is a lower bound on the quietTo
	// any later rescan can compute while the core stays clean: quietTo
	// less one ring turn, the most a rounding-sensitive floor in the
	// per-task bound can move it.
	key int64
	// dirty cores have no valid record and are rescanned by the next
	// scan; slot is the core's heap index (-1 when not in the heap).
	dirty bool
	slot  int
}

// checkHorizon, when non-nil, sees every horizon the calendar computes
// before the engine acts on it. In-package tests set it to compare the
// calendar against a full scan.
var checkHorizon func(e *Engine, maxSpan, h int64)

// horizonTicks returns how many of the next ticks are guaranteed free
// of discrete events, at most maxSpan. Zero means the next tick must be
// executed by the plain path. A positive horizon leaves every core
// clean, its calendar ring ready for macroStep to replay.
func (e *Engine) horizonTicks(maxSpan int64) int64 {
	e.prof.Scans++
	h := e.globalHorizon(maxSpan)
	if h > 0 {
		h = e.coreHorizon(h)
	}
	if h == 0 {
		e.prof.ZeroScans++
	}
	return h
}

// globalHorizon bounds the events of the shared resources — bus,
// source, sink, migration daemon — at most h.
func (e *Engine) globalHorizon(h int64) int64 {
	// Bus transfers: advance by exact replay up to the earliest tick any
	// of them could complete.
	if e.plat.Bus.Active() > 0 {
		if s := e.plat.Bus.SafeTicks(e.cfg.TickS); s < h {
			h = s
		}
		if h <= 0 {
			return 0
		}
	}
	// Source emission: the first tick whose time reaches the schedule.
	if j := e.ticksUntilCached(&e.evSrc, e.graph.NextSourceEmissionAt()) - 1; j < h {
		h = j
	}
	// Sink deadline (or imminent playback start).
	if j := e.ticksUntilCached(&e.evSink, e.graph.NextSinkDeadlineAt()) - 1; j < h {
		h = j
	}
	// Migration restore completion (task-recreation only; transfers are
	// excluded by the gate above, checkpoints by the completion bound).
	if j := e.ticksUntilCached(&e.evMigr, e.migr.NextPhaseTransitionAt()) - 1; j < h {
		h = j
	}
	return h
}

// coreHorizon lowers the candidate horizon h to the earliest possible
// per-core event. Every dirty core is rescanned — each leaves the scan
// clean, or still dirty because its very next tick may hold an event —
// and clean cores are rescanned only while their heap key does not
// clear the candidate.
func (e *Engine) coreHorizon(h int64) int64 {
	fresh := e.fresh[:0]
	still := e.dirtyList[:0]
	for _, c := range e.dirtyList {
		b := e.rescan(c)
		if b == 0 {
			still = append(still, c)
			h = 0
			continue
		}
		e.cal[c].dirty = false
		fresh = append(fresh, c)
		h = min(h, b)
	}
	e.dirtyList = still
	for h > 0 && len(e.heap) > 0 && e.cal[e.heap[0]].key <= e.ticks+h {
		c := e.heap[0]
		e.heapRemove(0)
		b := e.rescan(c)
		if b == 0 {
			e.cal[c].dirty = true
			e.dirtyList = append(e.dirtyList, c)
			h = 0
			break
		}
		fresh = append(fresh, c)
		h = min(h, b)
	}
	// Rescanned cores rejoin the heap only now, so none is visited twice.
	for _, c := range fresh {
		if e.cal[c].key != never {
			e.heapPush(c)
		}
	}
	e.fresh = fresh[:0]
	return h
}

// rescan recomputes core c's record from the run queue and returns its
// horizon relative to the current tick: 0 when the next tick may hold
// an event on c (the record is then partial and the caller keeps or
// makes c dirty), maxHorizon when c has no event source of its own.
func (e *Engine) rescan(c int) int64 {
	e.prof.Rescans++
	e.syncCursor(c)
	cs := &e.cal[c]
	cs.ring = cs.ring[:0]
	cs.next = 0
	cs.quietTo, cs.key = never, never
	f := e.plat.Frequency(c)
	budget := f * e.cfg.TickS
	cs.budget = budget
	if f <= 0 || budget <= 1e-6 {
		return maxHorizon // the tick loop would not execute anything either
	}
	// First pass: collect the allocatable tasks (the round-robin ring,
	// in pick order). A task that could begin a frame changes queue
	// state on the very next tick.
	e.orderBuf = e.sch.OrderFrom(c, e.orderBuf)
	for _, ti := range e.orderBuf {
		t := e.graph.Task(ti)
		if !t.Runnable() {
			continue
		}
		if t.InFlight {
			cs.ring = append(cs.ring, ti)
		} else if e.graph.CanFire(ti) {
			return 0
		}
	}
	m := int64(len(cs.ring))
	if m == 0 {
		return maxHorizon // idle core: accounting only, no events
	}
	// Second pass: task at ring position p receives budget on ticks
	// p+1, p+1+m, ...; it certainly cannot complete during its first
	// floor(remaining/budget)-1 allocations (one whole allocation of
	// safety absorbs any rounding in Progress accumulation).
	b := maxHorizon
	for p, ti := range cs.ring {
		safe := max(int64(e.graph.Task(ti).Remaining()/budget)-1, 0)
		if hc := int64(p) + safe*m; hc < b {
			b = hc
			if b == 0 {
				return 0
			}
		}
	}
	cs.quietTo = e.ticks + b
	cs.key = cs.quietTo - m
	return b
}

// markDirty invalidates core c's calendar record. The check is split
// from the work so the common already-dirty case inlines.
func (e *Engine) markDirty(c int) {
	if !e.cal[c].dirty {
		e.invalidate(c)
	}
}

func (e *Engine) invalidate(c int) {
	e.syncCursor(c)
	cs := &e.cal[c]
	cs.dirty = true
	e.dirtyList = append(e.dirtyList, c)
	if cs.slot >= 0 {
		e.heapRemove(cs.slot)
	}
}

// queueChanged dirties every core hosting a producer or consumer of
// queue q: a push can let a consumer fire, a pop can unblock a producer.
func (e *Engine) queueChanged(q int) {
	for _, ti := range e.queueTasks[q] {
		e.markDirty(e.graph.Task(ti).Core)
	}
}

// syncCursor moves core c's round-robin cursor to where the calendar's
// allocations since the rescan have left it: just past the last ring
// task allocated, exactly where PickNext would have.
func (e *Engine) syncCursor(c int) {
	if cs := &e.cal[c]; cs.moved {
		cs.moved = false
		m := len(cs.ring)
		e.sch.AdvancePast(c, cs.ring[(cs.next+m-1)%m])
	}
}

// heapPush inserts clean core c into the calendar heap.
func (e *Engine) heapPush(c int) {
	e.cal[c].slot = len(e.heap)
	e.heap = append(e.heap, c)
	e.heapUp(len(e.heap) - 1)
}

// heapRemove takes the core at heap index i out of the heap.
func (e *Engine) heapRemove(i int) {
	last := len(e.heap) - 1
	e.cal[e.heap[i]].slot = -1
	if i != last {
		e.heap[i] = e.heap[last]
		e.cal[e.heap[i]].slot = i
	}
	e.heap = e.heap[:last]
	if i != last {
		e.heapDown(i)
		e.heapUp(i)
	}
}

func (e *Engine) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if e.cal[e.heap[p]].key <= e.cal[e.heap[i]].key {
			return
		}
		e.heapSwap(i, p)
		i = p
	}
}

func (e *Engine) heapDown(i int) {
	n := len(e.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		s := l
		if r := l + 1; r < n && e.cal[e.heap[r]].key < e.cal[e.heap[l]].key {
			s = r
		}
		if e.cal[e.heap[i]].key <= e.cal[e.heap[s]].key {
			return
		}
		e.heapSwap(i, s)
		i = s
	}
}

func (e *Engine) heapSwap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.cal[e.heap[i]].slot = i
	e.cal[e.heap[j]].slot = j
}

// evCache memoizes one ticksUntil call site. The threshold tick for a
// given event time is independent of the current tick (the predicate
// compares absolute tick times against `at`), so while the event time
// is unchanged the cached absolute tick answers every rescan with one
// subtraction — the horizon scan runs several times per sensor period
// against mostly-unchanged source/sink/migration schedules.
type evCache struct {
	at  float64
	abs int64 // first tick index whose time reaches at
}

// ticksUntilCached is ticksUntil memoized through c. The cached
// absolute tick stays valid until the event time changes; once the
// clock passes it the clamp to 1 reproduces ticksUntil's floor exactly.
func (e *Engine) ticksUntilCached(c *evCache, at float64) int64 {
	if math.IsInf(at, 1) {
		return maxHorizon
	}
	if math.IsInf(at, -1) {
		return 1
	}
	if at == c.at {
		j := c.abs - e.ticks
		if j < 1 {
			return 1
		}
		return j
	}
	j := e.ticksUntil(at)
	if j < maxHorizon {
		c.at, c.abs = at, e.ticks+j
	}
	return j
}

// ticksUntil returns the smallest j >= 1 such that the time of tick
// ticks+j reaches `at` under the engine's event predicate
// (now >= at-1e-12, the same slop the stream schedulers use). Infinite
// or never-due times return maxHorizon.
func (e *Engine) ticksUntil(at float64) int64 {
	if math.IsInf(at, 1) {
		return maxHorizon
	}
	if math.IsInf(at, -1) {
		return 1
	}
	tick := e.cfg.TickS
	j := int64((at-1e-12)/tick) - e.ticks
	if j < 1 {
		j = 1
	}
	if j > maxHorizon {
		j = maxHorizon
	}
	// Nudge to the exact boundary of the float predicate.
	for j > 1 && float64(e.ticks+j-1)*tick >= at-1e-12 {
		j--
	}
	for j < maxHorizon && float64(e.ticks+j)*tick < at-1e-12 {
		j++
	}
	return j
}

// macroStep advances span event-free ticks in one jump, replaying the
// exact budget allocations the plain loop would have made from each
// core's calendar ring (all cores are clean after a positive horizon).
//
// The replay batches per task rather than walking tick-by-tick: within
// the span every allocation deposits the same full budget, so each
// accumulator (a task's Progress/BusyCycles, the core's pending busy
// cycles) receives an identical sequence of identical additions no
// matter how the per-tick interleaving is grouped — the batched result
// is bit-for-bit the tick loop's. The ring index then moves just past
// the span's final allocation, where PickNext would have left the
// cursor.
func (e *Engine) macroStep(span int64) {
	e.prof.MacroSteps++
	e.prof.MacroTicks += span
	for c := range e.cal {
		e.pendTicks[c] += span
		cs := &e.cal[c]
		m := int64(len(cs.ring))
		if m == 0 {
			continue
		}
		i := cs.next
		for p := int64(0); p < m; p++ {
			// Ring position p, counted from the next allocation in pick
			// order (the order pendBusy accumulates in), is allocated on
			// ticks p+1, p+1+m, ...
			a := int64(0)
			if span > p {
				a = (span-1-p)/m + 1
			}
			t := e.graph.Task(cs.ring[i])
			if i++; i == len(cs.ring) {
				i = 0
			}
			if e.spanExact {
				// Span-exact accounting (expm scheme): one exact
				// product replaces the a rounded additions of the
				// replay loop. See Task.ExecuteSpan.
				consumed, done := t.ExecuteSpan(cs.budget, a)
				if done {
					panic(fmt.Sprintf("sim: fast path mispredicted completion of %q", t.Name))
				}
				e.pendBusy[c] += consumed
				continue
			}
			for j := int64(0); j < a; j++ {
				consumed, done := t.Execute(cs.budget)
				if done {
					panic(fmt.Sprintf("sim: fast path mispredicted completion of %q", t.Name))
				}
				e.pendBusy[c] += consumed
			}
		}
		cs.next = int((int64(cs.next) + span) % m)
		cs.moved = true
	}
	e.plat.Bus.AdvanceTicks(e.cfg.TickS, span)
	e.ticks += span
	e.now = float64(e.ticks) * e.cfg.TickS
}
