// Package sim is the thermal-aware emulation engine: the software
// equivalent of the paper's FPGA framework (Section 4). It advances a
// tick-accurate model of the MPSoC — per-core schedulers executing the
// streaming graph, the shared bus, the migration middleware — and
// couples it to the RC thermal model at the 10 ms sensor period, at
// which point the active management policy is consulted and its actions
// (migrations, core stop/start) are applied.
//
// Time is an integer tick counter (Now() is derived, never
// accumulated, so the clock cannot drift), and event-free stretches of
// the tick loop are jumped in macro-steps by the event-horizon fast
// path (see horizon.go) with bit-for-bit identical results.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"thermbal/internal/metrics"
	"thermbal/internal/migrate"
	"thermbal/internal/mpsoc"
	"thermbal/internal/policy"
	"thermbal/internal/sched"
	"thermbal/internal/stream"
	"thermbal/internal/task"
	"thermbal/internal/thermal"
	"thermbal/internal/trace"
)

// The engine's clock: the 100 µs execution tick and the paper's 10 ms
// monitoring rate, at which the thermal model, the sensors and the
// policy are updated. Sensor updates fire at absolute tick multiples of
// sensorEvery, so Run re-entry keeps the cadence aligned to absolute
// time.
const (
	TickS         = 100e-6
	SensorPeriodS = 10e-3
	sensorEvery   = int64(SensorPeriodS / TickS)
)

// Config parameterises a run.
type Config struct {
	// PolicyStartS delays policy activation (the paper enables thermal
	// balancing after a 12.5 s warm-up). Default 0 (immediately).
	PolicyStartS float64
	// MeasureStartS delays metric collection (usually = PolicyStartS,
	// or later to exclude the balancing transient). Default 0.
	MeasureStartS float64
	// Mechanism selects the migration implementation (default
	// task-replication, the paper's platform choice).
	Mechanism migrate.Mechanism
	// RecordTrace enables the timeline recorder.
	RecordTrace bool
	// Thermal selects the RC-network integration scheme (zero value =
	// explicit Euler, the seed behavior).
	Thermal thermal.Scheme
	// Modulate, when non-nil, is invoked at every sensor update and may
	// change task FSE loads in place (bursty and phase-shifting
	// workloads). Returning true signals that loads changed: the engine
	// then rebinds per-frame work and re-evaluates DVFS on every core.
	// Tasks mid-frame finish at the old work amount and pick up the new
	// load at their next frame.
	Modulate Modulator
	// NoFastPath disables the event-horizon macro-stepping fast path and
	// forces plain tick-by-tick execution. Results are bit-for-bit
	// identical either way, under either thermal scheme and for every
	// spec: owed allocations are applied by one rule, the tick loop's
	// sequential additions (task.AddN). The switch exists for A/B
	// validation and for isolating fast-path regressions.
	NoFastPath bool
}

// Modulator mutates task loads at a sensor update. It must be a pure
// function of its arguments — the update's time now, the previous
// update's time prev (negative infinity at the first update) and the
// tasks — and keep no state of its own, so that an engine restored from
// a Checkpoint continues exactly like the engine it was taken from.
type Modulator func(prev, now float64, tasks []*task.Task) bool

// Engine couples platform, application and policy.
type Engine struct {
	cfg Config

	plat  *mpsoc.Platform
	graph *stream.Graph
	sch   *sched.Scheduler
	migr  *migrate.Manager
	pol   policy.Policy

	// ticks is the integer simulation clock: the number of execution
	// ticks advanced since construction. now is always derived as
	// float64(ticks)*TickS, never accumulated, so the clock carries no
	// floating-point drift regardless of run length, and consecutive Run
	// calls are bit-for-bit identical to one long run.
	ticks int64
	now   float64

	// Power accounting is deferred into constant-state spans: within a
	// sensor window the die temperatures are constant, and between DVFS /
	// power-state changes each core's frequency is too, so the affine
	// power model integrates exactly over the whole span. pendTicks is
	// integer so span lengths are identical whether the span was walked
	// tick-by-tick or jumped by the fast path.
	pendTicks       []int64   // per-core un-accounted ticks
	pendBusy        []float64 // per-core un-accounted busy cycles
	lastSharedFlush int64     // tick of the last shared-memory flush

	// Memoized event-time → threshold-tick conversions for the horizon
	// scan (see evCache in horizon.go).
	evSrc, evSink, evMigr evCache

	// The per-core event calendar (see horizon.go): each core's record
	// from its last rescan, a min-heap of the clean cores by bound, and
	// the dirty cores awaiting a rescan. queueTasks[q] lists the
	// producers and consumers of queue q, whose cores a change to q
	// dirties.
	cal        []coreCal
	heap       []int
	dirtyList  []int
	fresh      []int // scan scratch
	queueTasks [][]int
	srcQueue   int
	sinkQueue  int
	// due is the plain tick's bitset of cores to step through runCore.
	// passed is the index of the core the tick is stepping: cores below
	// it have been stepped this tick, cores at or after it have not.
	// Outside a plain tick it is the core count.
	due    []uint64
	passed int

	runnableFn func(int) bool // the tick path's PickNext predicate
	orderBuf   []int

	prof Profile

	temps    *metrics.TempCollector
	rec      *trace.Recorder
	snapshot policy.Snapshot // reused across sensor periods

	// measuring window bookkeeping for rate metrics, taken at the
	// first measuring update (see firstAtOrAfter)
	measureStartMisses   int64
	measureStartConsumed int64
	measureStartMigr     int
	measureStartBytes    float64
	measureStartTime     float64

	// workRatio[i] = CyclesPerFrame/FSE of task i at construction, so
	// modulated loads rebind to consistent per-frame work.
	workRatio []float64

	// overshoot tracking (the paper: the hot core exceeds the upper
	// threshold for <400 ms while balancing)
	overThresholdS float64
	deltaForOver   float64
}

// New builds an engine. The graph must be finalized and its tasks
// placed (Core >= 0).
func New(cfg Config, plat *mpsoc.Platform, g *stream.Graph, pol policy.Policy) (*Engine, error) {
	if pol == nil {
		pol = policy.None{}
	}
	n := plat.NumCores()
	e := &Engine{
		cfg:       cfg,
		plat:      plat,
		graph:     g,
		sch:       sched.New(n),
		migr:      migrate.NewManager(plat.Bus, cfg.Mechanism),
		pol:       pol,
		temps:     metrics.NewTempCollector(n),
		pendTicks: make([]int64, n),
		pendBusy:  make([]float64, n),
		cal:       make([]coreCal, n),
		dirtyList: make([]int, 0, n),
		due:       make([]uint64, (n+63)/64),
		passed:    n,
	}
	// Every core starts dirty; under NoFastPath none is ever rescanned,
	// so every tick runs every core through runCore.
	for c := range e.cal {
		e.cal[c] = coreCal{dirty: true, slot: -1}
		e.dirtyList = append(e.dirtyList, c)
	}
	e.queueTasks = make([][]int, g.NumQueues())
	for ti := range g.Tasks() {
		for _, q := range g.Inputs(ti) {
			e.queueTasks[q] = append(e.queueTasks[q], ti)
		}
		for _, q := range g.Outputs(ti) {
			e.queueTasks[q] = append(e.queueTasks[q], ti)
		}
	}
	e.srcQueue, _ = g.SourceConfig()
	e.sinkQueue, _, _ = g.SinkConfig()
	e.runnableFn = func(ti int) bool {
		t := e.graph.Task(ti)
		if !t.Runnable() {
			return false
		}
		return t.InFlight || e.graph.CanFire(ti)
	}
	if cfg.RecordTrace {
		e.rec = trace.New(n)
	}
	plat.Thermal.Net.SetIntegrator(thermal.NewIntegrator(cfg.Thermal))
	e.workRatio = make([]float64, g.NumTasks())
	for ti, t := range g.Tasks() {
		if t.Core < 0 || t.Core >= n {
			return nil, fmt.Errorf("sim: task %q placed on core %d (platform has %d)", t.Name, t.Core, n)
		}
		if err := e.sch.Assign(ti, t.Core); err != nil {
			return nil, err
		}
		if t.FSE > 0 {
			e.workRatio[ti] = t.CyclesPerFrame / t.FSE
		}
	}
	// Initial DVFS assignment from the static mapping.
	for c := 0; c < n; c++ {
		e.updateDVFS(c)
	}
	e.migr.OnComplete = e.onMigrationComplete
	e.snapshot = policy.Snapshot{
		Temp:    make([]float64, n),
		Freq:    make([]float64, n),
		Powered: make([]bool, n),
		Tasks:   make([]policy.TaskView, g.NumTasks()),
		LevelFor: func(fse float64) float64 {
			return plat.Gov.Ladder().LevelFor(fse)
		},
		EstimateFreeze: func(ti int) float64 {
			return e.migr.EstimateFreezeS(g.Task(ti), 1)
		},
	}
	return e, nil
}

// Profile returns the engine's work counters so far. They are not part
// of Result, so no run document or content address depends on them.
func (e *Engine) Profile() Profile { return e.prof }

// SetOvershootDelta enables tracking of time the hottest core spends
// above mean+delta (the paper's <400 ms overshoot observation).
func (e *Engine) SetOvershootDelta(delta float64) { e.deltaForOver = delta }

// Platform exposes the platform (read-mostly; tests adjust state).
func (e *Engine) Platform() *mpsoc.Platform { return e.plat }

// Ticks returns the integer tick count advanced since construction.
func (e *Engine) Ticks() int64 { return e.ticks }

// Recorder returns the trace recorder (nil unless RecordTrace).
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// flushAccount settles core c's pending execution span, owed ticks
// included, into the power accounting. It must run before anything that
// changes the core's operating point (frequency, power state) or the
// die temperature, so every accounted span has constant state.
func (e *Engine) flushAccount(c int) {
	e.catchUp(c)
	if e.pendTicks[c] == 0 {
		return
	}
	e.plat.AccountSpan(c, float64(e.pendTicks[c])*TickS, e.pendBusy[c])
	e.pendTicks[c] = 0
	e.pendBusy[c] = 0
}

// updateDVFS recomputes core c's level from its mapped, unfrozen tasks.
func (e *Engine) updateDVFS(c int) {
	e.flushAccount(c)
	e.markDirty(c)
	if !e.plat.Powered(c) {
		return // stays at 0 until restart
	}
	var fse float64
	for _, ti := range e.sch.TasksOn(c) {
		t := e.graph.Task(ti)
		if t.State == task.Ready {
			fse += t.FSE
		}
	}
	e.plat.Gov.Update(c, fse)
}

// rebindWork syncs every task's per-frame work with its (possibly
// modulated) FSE. Tasks mid-frame keep the old amount until the frame
// completes; runCore rebinds them at that frame boundary.
func (e *Engine) rebindWork() {
	for ti, t := range e.graph.Tasks() {
		if t.InFlight {
			continue
		}
		if want := e.workRatio[ti] * t.FSE; t.CyclesPerFrame != want {
			t.CyclesPerFrame = want
		}
	}
}

// fseMapped sums FSE of all tasks whose home is core c, regardless of
// freeze state — used when restarting a stopped core.
func (e *Engine) fseMapped(c int) float64 {
	var fse float64
	for _, ti := range e.sch.TasksOn(c) {
		fse += e.graph.Task(ti).FSE
	}
	return fse
}

// onMigrationComplete rebinds the scheduler and DVFS after the
// middleware finishes a transfer.
func (e *Engine) onMigrationComplete(mg *migrate.Migration) {
	// Both run queues change: settle their calendar records (and
	// round-robin cursors) before the rebind.
	e.markDirty(mg.Src)
	e.markDirty(mg.Dst)
	if err := e.sch.Move(mg.TaskIdx, mg.Src, mg.Dst); err != nil {
		panic(fmt.Sprintf("sim: migration completion rebind: %v", err))
	}
	e.updateDVFS(mg.Src)
	e.updateDVFS(mg.Dst)
	if e.rec != nil {
		e.rec.AddEvent(e.now, "migrate-done", "%s core%d->core%d (%.0f KB, frozen %.1f ms)",
			mg.Task.Name, mg.Src+1, mg.Dst+1, mg.Bytes()/1024, mg.FreezeDuration()*1e3)
	}
}

// Run advances the simulation by duration seconds, rounded to the
// nearest whole tick. Each call rounds its own duration, so a run split
// at durations that are not whole ticks can end at another tick than
// one long run: Run(1.00003) then Run(2.00003) ends at tick 30,000 of
// the 100 µs tick, Run(3.00006) at tick 30,001. Split with
// RunTo, which takes absolute ticks, when the split must be exact.
func (e *Engine) Run(duration float64) error {
	if duration <= 0 {
		return errors.New("sim: non-positive duration")
	}
	return e.RunTo(e.ticks + e.TickAt(duration))
}

// TickAt returns the tick count nearest to t seconds of simulated time.
func (e *Engine) TickAt(t float64) int64 { return int64(t/TickS + 0.5) }

// RunTo advances the simulation to absolute tick end (nothing when the
// clock is already there). The tick and sensor bookkeeping live on the
// Engine, so split runs are bit-for-bit identical to one long run:
// RunTo(a) then RunTo(b) fires the same sensor updates at the same
// ticks as RunTo(b) alone. Only the Profile shows the split, because
// the event calendar is rebuilt at every call. On return every core has
// applied its owed allocations, so the engine's state is current.
func (e *Engine) RunTo(end int64) error {
	e.settle()
	for e.ticks < end {
		if e.cfg.NoFastPath {
			e.stepTick()
		} else {
			e.advance(end)
		}
		if e.ticks%sensorEvery == 0 {
			// The update flushes every core, catching each up, before
			// anything in it can fail.
			if err := e.sensorUpdate(); err != nil {
				return err
			}
		}
	}
	for c := range e.cal {
		e.catchUp(c)
	}
	return nil
}

// settle invalidates every calendar record. Callers may adjust platform
// state between runs (see Platform), so no record survives a RunTo
// boundary or a Checkpoint.
func (e *Engine) settle() {
	for c := range e.cal {
		e.markDirty(c)
	}
}

// prevSensorTime is the time of the sensor update before the current
// one, negative infinity at the first. Updates fire every sensorEvery
// ticks, so it is exactly the now the previous update saw.
func (e *Engine) prevSensorTime() float64 {
	if e.ticks <= sensorEvery {
		return math.Inf(-1)
	}
	return float64(e.ticks-sensorEvery) * TickS
}

// firstAtOrAfter reports whether the current sensor update is the first
// at or after start seconds: its now is not below start and the
// previous update's was. Both times derive from the integer clock, so
// the first measuring and the first policy update need no flag.
func (e *Engine) firstAtOrAfter(start float64) bool {
	return e.now >= start && e.prevSensorTime() < start
}

// WarmupEnd returns the last sensor boundary strictly before both
// PolicyStartS and MeasureStartS (0 when there is none). Until then
// the policy is never consulted and no metric is collected, so the
// engine's state at that tick is the same under every policy and
// overshoot threshold: runs that differ only in those can share it
// through a Checkpoint.
func (e *Engine) WarmupEnd() int64 {
	start := min(e.cfg.PolicyStartS, e.cfg.MeasureStartS)
	if !(start > 0) {
		return 0
	}
	k := e.TickAt(start) / sensorEvery * sensorEvery
	if k < 0 {
		return 0 // beyond the int64 clock
	}
	for k > 0 && float64(k)*TickS >= start {
		k -= sensorEvery
	}
	for float64(k+sensorEvery)*TickS < start {
		k += sensorEvery
	}
	return k
}

// advance moves the clock forward by one fast-path group: a macro-step
// over the event-free horizon followed by the plain tick that contains
// the next event, so the horizon scan is amortized over the whole
// group. It never crosses a sensor boundary or the run end.
func (e *Engine) advance(end int64) {
	max := sensorEvery - e.ticks%sensorEvery // ticks to the boundary
	if remain := end - e.ticks; remain < max {
		max = remain
	}
	span := e.horizonTicks(max)
	if checkHorizon != nil {
		checkHorizon(e, max, span)
	}
	if span <= 0 {
		e.stepTick()
		return
	}
	e.macroStep(span)
	if span < max {
		// The tick after an event-free horizon holds the next event;
		// execute it plainly before rescanning.
		e.stepTick()
	}
}

// stepTick advances one execution tick. It steps only the due cores,
// in index order, each through runCore: the dirty ones, the clean ones
// whose proven bound has run out, and any core a lower one's runCore
// dirties on the way. Every other core is clean and its calendar record
// proves the tick event-free: its next ring task receives the whole
// budget and continues its frame, exactly what runCore's PickNext would
// do. That allocation is owed and applied by the core's next catch-up.
func (e *Engine) stepTick() {
	e.prof.PlainTicks++
	e.ticks++
	e.now = float64(e.ticks) * TickS
	e.passed = 0
	if e.graph.AdvanceSource(e.now) {
		e.queueChanged(e.srcQueue)
	}

	for _, c := range e.dirtyList {
		e.due[c>>6] |= 1 << (c & 63)
	}
	if len(e.heap) > 0 && e.cal[e.heap[0]].key < e.ticks {
		e.markExpired(0)
	}
	stepped := 0
	for w := range e.due {
		for e.due[w] != 0 {
			c := w<<6 | bits.TrailingZeros64(e.due[w])
			e.passed = c
			e.markDirty(c) // re-adds c to the due set when it was clean
			e.due[w] &^= 1 << (c & 63)
			e.runCore(c)
			stepped++
		}
	}
	e.passed = len(e.cal)
	e.prof.QuietCores += int64(len(e.cal) - stepped)

	e.plat.Bus.Advance(TickS)
	e.migr.Advance(e.now)

	if e.graph.AdvanceSink(e.now) {
		e.queueChanged(e.sinkQueue)
	}
}

// runCore executes up to one tick of work on core c.
func (e *Engine) runCore(c int) {
	e.prof.FullCores++
	f := e.plat.Frequency(c)
	if f <= 0 {
		e.pendTicks[c]++
		return
	}
	budget := f * TickS
	var busy float64
	for budget > 1e-6 {
		ti := e.sch.PickNext(c, e.runnableFn)
		if ti < 0 {
			break
		}
		t := e.graph.Task(ti)
		if !t.InFlight {
			if err := e.graph.BeginFrame(ti); err != nil {
				panic(fmt.Sprintf("sim: BeginFrame(%s): %v", t.Name, err))
			}
			e.prof.FrameBegins++
			for _, q := range e.graph.Inputs(ti) {
				e.queueChanged(q)
			}
		}
		consumed, done := t.Execute(budget)
		budget -= consumed
		busy += consumed
		if done {
			e.graph.FinishFrame(ti)
			e.prof.FrameFinishes++
			for _, q := range e.graph.Outputs(ti) {
				e.queueChanged(q)
			}
			// Frame boundary: a task that was mid-frame when its load
			// was modulated picks up the new per-frame work here, even
			// if a saturated core keeps it in flight across every
			// sensor update.
			if e.cfg.Modulate != nil {
				if want := e.workRatio[ti] * t.FSE; t.CyclesPerFrame != want {
					t.CyclesPerFrame = want
				}
			}
			// Frame boundary = migration checkpoint (Section 3.2).
			froze, err := e.migr.AtCheckpoint(ti, e.now)
			if err != nil {
				panic(fmt.Sprintf("sim: checkpoint(%s): %v", t.Name, err))
			}
			if froze {
				// The frozen task leaves the run queue; its load no
				// longer drives this core's DVFS level.
				e.updateDVFS(c)
				if e.rec != nil {
					e.rec.AddEvent(e.now, "freeze", "%s frozen on core%d", t.Name, c+1)
				}
			}
		}
	}
	e.pendTicks[c]++
	e.pendBusy[c] += busy
}

// sensorUpdate flushes the power window into the thermal model, samples
// metrics, and runs the policy.
func (e *Engine) sensorUpdate() error {
	for c := 0; c < e.plat.NumCores(); c++ {
		e.flushAccount(c)
	}
	if e.ticks > e.lastSharedFlush {
		e.plat.AccountShared(float64(e.ticks-e.lastSharedFlush) * TickS)
		e.lastSharedFlush = e.ticks
	}
	if err := e.plat.FlushWindow(SensorPeriodS); err != nil {
		return err
	}
	for c := 0; c < e.plat.NumCores(); c++ {
		// NaN fails the comparison too.
		if temp := e.plat.CoreTemp(c); !(temp <= MaxDieTempC) {
			return &RunawayError{Core: c, TimeS: e.now, TempC: temp}
		}
	}

	// Load modulation: phase shifts and bursts change task FSE before
	// the snapshot is built, so both DVFS and the policy see the new
	// loads immediately.
	if e.cfg.Modulate != nil && e.cfg.Modulate(e.prevSensorTime(), e.now, e.graph.Tasks()) {
		e.rebindWork()
		for c := 0; c < e.plat.NumCores(); c++ {
			e.updateDVFS(c)
		}
	}

	s := &e.snapshot
	s.Time = e.now
	var sumT, sumF float64
	for c := 0; c < e.plat.NumCores(); c++ {
		s.Temp[c] = e.plat.CoreTemp(c)
		s.Freq[c] = e.plat.Frequency(c)
		s.Powered[c] = e.plat.Powered(c)
		sumT += s.Temp[c]
		sumF += s.Freq[c]
	}
	s.MeanTemp = sumT / float64(e.plat.NumCores())
	s.MeanFreq = sumF / float64(e.plat.NumCores())
	for ti, t := range e.graph.Tasks() {
		_, migrating := e.migr.Pending(ti)
		s.Tasks[ti] = policy.TaskView{
			Index:      ti,
			Name:       t.Name,
			Core:       t.Core,
			FSE:        t.FSE,
			StateBytes: t.StateBytes,
			Migrating:  migrating,
		}
	}
	s.MigrationsPending = e.migr.NumPending()

	// Metrics.
	if e.now >= e.cfg.MeasureStartS {
		if e.firstAtOrAfter(e.cfg.MeasureStartS) {
			e.measureStartTime = e.now
			e.measureStartMisses = e.graph.SinkStats().Misses
			e.measureStartConsumed = e.graph.SinkStats().Consumed
			st := e.migr.Stats()
			e.measureStartMigr = st.Completed
			e.measureStartBytes = st.BytesMoved
		}
		e.temps.Sample(s.Temp)
		if e.deltaForOver > 0 {
			for c := 0; c < e.plat.NumCores(); c++ {
				if s.Temp[c] > s.MeanTemp+e.deltaForOver {
					e.overThresholdS += SensorPeriodS
					break
				}
			}
		}
	}
	if e.rec != nil {
		e.rec.AddSample(trace.Sample{Time: e.now, Temp: s.Temp, Freq: s.Freq})
	}

	// Policy.
	if e.now >= e.cfg.PolicyStartS {
		if e.rec != nil && e.firstAtOrAfter(e.cfg.PolicyStartS) {
			e.rec.AddEvent(e.now, "policy-on", "policy %s active", e.pol.Name())
		}
		for _, act := range e.pol.Decide(s) {
			if err := e.apply(act); err != nil {
				return err
			}
		}
	}
	return nil
}

// apply executes one policy action.
func (e *Engine) apply(act policy.Action) error {
	switch a := act.(type) {
	case policy.Migrate:
		if a.Task < 0 || a.Task >= e.graph.NumTasks() {
			return fmt.Errorf("sim: policy migrated unknown task %d", a.Task)
		}
		if a.Dst < 0 || a.Dst >= e.plat.NumCores() {
			return fmt.Errorf("sim: policy migrated task %d to unknown core %d", a.Task, a.Dst)
		}
		t := e.graph.Task(a.Task)
		if _, err := e.migr.Request(t, a.Task, a.Dst); err != nil {
			// Racing requests are filtered by the policy contract, so
			// surface real protocol errors.
			return fmt.Errorf("sim: %w", err)
		}
		if e.rec != nil {
			e.rec.AddEvent(e.now, "migrate-req", "%s core%d->core%d", t.Name, t.Core+1, a.Dst+1)
		}
	case policy.StopCore:
		if a.Core < 0 || a.Core >= e.plat.NumCores() {
			return fmt.Errorf("sim: policy stopped unknown core %d", a.Core)
		}
		e.flushAccount(a.Core)
		e.markDirty(a.Core)
		e.plat.SetPowered(a.Core, false, 0)
		if e.rec != nil {
			e.rec.AddEvent(e.now, "stop", "core%d stopped", a.Core+1)
		}
	case policy.StartCore:
		if a.Core < 0 || a.Core >= e.plat.NumCores() {
			return fmt.Errorf("sim: policy started unknown core %d", a.Core)
		}
		e.flushAccount(a.Core)
		e.markDirty(a.Core)
		e.plat.SetPowered(a.Core, true, e.fseMapped(a.Core))
		if e.rec != nil {
			e.rec.AddEvent(e.now, "start", "core%d restarted", a.Core+1)
		}
	default:
		return fmt.Errorf("sim: unknown action %T", act)
	}
	return nil
}

// Result summarises a finished run over the measurement window.
type Result struct {
	// PolicyName labels the run.
	PolicyName string
	// MeasuredS is the length of the measurement window.
	MeasuredS float64

	// PooledStdDev is the Figure 7/9 metric: the standard deviation
	// over all (core, time) samples — spatial and temporal deviation
	// combined (the paper studies both, Section 5).
	PooledStdDev float64
	// SpatialStdDev is the time-averaged across-core standard
	// deviation alone.
	SpatialStdDev float64
	// MeanGradient is the time-averaged hottest-coldest spread.
	MeanGradient float64
	// MeanTemporalStdDev averages per-core temporal deviation.
	MeanTemporalStdDev float64
	// MaxTemp is the hottest sample.
	MaxTemp float64

	// DeadlineMisses within the window (Figures 8/10).
	DeadlineMisses int64
	// FramesConsumed within the window.
	FramesConsumed int64
	// MissRatePct = misses / deadlines (%).
	MissRatePct float64

	// Migrations within the window; MigrationsPerSec is Figure 11.
	Migrations       int
	MigrationsPerSec float64
	// MigratedBytes within the window; BytesPerSec the paper quotes as
	// 192 KB/s at 3 migrations/s.
	MigratedBytes    float64
	BytesPerSec      float64
	MeanFreezeS      float64
	OverThresholdS   float64
	TotalEnergyJ     float64
	DVFSSwitches     int
	SourceDropped    int64
	MinQueueHeadroom int
}

// Summarize builds the Result for the measurement window ending now.
func (e *Engine) Summarize() Result {
	snk := e.graph.SinkStats()
	st := e.migr.Stats()
	measured := e.now - e.measureStartTime
	r := Result{
		PolicyName:         e.pol.Name(),
		MeasuredS:          measured,
		PooledStdDev:       e.temps.PooledStdDev(),
		SpatialStdDev:      e.temps.MeanSpatialStdDev(),
		MeanGradient:       e.temps.MeanGradient(),
		MeanTemporalStdDev: e.temps.MeanTemporalStdDev(),
		MaxTemp:            e.temps.MaxTemp,
		DeadlineMisses:     snk.Misses - e.measureStartMisses,
		FramesConsumed:     snk.Consumed - e.measureStartConsumed,
		Migrations:         st.Completed - e.measureStartMigr,
		MigratedBytes:      st.BytesMoved - e.measureStartBytes,
		OverThresholdS:     e.overThresholdS,
		TotalEnergyJ:       e.plat.TotalEnergyJ,
		DVFSSwitches:       e.plat.Gov.Switches(),
		SourceDropped:      e.graph.SourceStats().Dropped,
	}
	deadlines := r.DeadlineMisses + r.FramesConsumed
	if deadlines > 0 {
		r.MissRatePct = 100 * float64(r.DeadlineMisses) / float64(deadlines)
	}
	if measured > 0 {
		r.MigrationsPerSec = float64(r.Migrations) / measured
		r.BytesPerSec = r.MigratedBytes / measured
	}
	if st.Completed > 0 {
		r.MeanFreezeS = st.FreezeTime / float64(st.Completed)
	}
	return r
}
