package stream

import (
	"errors"
	"fmt"
	"math"

	"thermbal/internal/ckpt"
	"thermbal/internal/task"
)

// Graph is a streaming application: tasks wired by bounded queues, plus
// one paced source and one deadline-driven sink.
type Graph struct {
	queues []*Queue
	qIndex map[string]int

	tasks []*task.Task
	// inputs[i], outputs[i] are queue indices of task i.
	inputs  [][]int
	outputs [][]int
	tIndex  map[string]int

	source Source
	sink   Sink
}

// Source paces frames into the head queue at a fixed real-time rate
// (the digitalised PCM radio samples of the SDR benchmark). Emission
// times are derived as base + attempt*period rather than accumulated,
// so the schedule carries no floating-point drift over long runs.
type Source struct {
	queue   int
	period  float64
	base    float64 // time of emission 0, set when pacing starts
	next    int64   // emissions attempted so far (pushed or dropped)
	started bool

	// Emitted counts frames pushed; Dropped counts frames lost to a
	// full head queue (input overrun).
	Emitted int64
	Dropped int64
}

// nextEmissionAt is the scheduled time of the next emission attempt.
func (s *Source) nextEmissionAt() float64 {
	return s.base + float64(float64(s.next)*s.period)
}

// Sink drains the tail queue on a deadline schedule: one frame must be
// available every period once the prefill threshold has been reached
// (audio playback). A missing frame is a deadline miss — the paper's
// QoS degradation metric.
type Sink struct {
	queue   int
	period  float64
	prefill int
	playing bool
	base    float64 // time playback started; deadline k is base+(k+1)*period
	fired   int64   // deadlines elapsed since playback started

	// Consumed counts frames played; Misses counts deadlines with an
	// empty queue.
	Consumed int64
	Misses   int64
}

// nextDeadlineAt is the next deadline, derived from the deadline count
// so the schedule carries no floating-point drift.
func (k *Sink) nextDeadlineAt() float64 {
	return k.base + float64(float64(k.fired+1)*k.period)
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		qIndex: make(map[string]int),
		tIndex: make(map[string]int),
	}
}

// AddQueue creates and registers a queue, returning its index.
func (g *Graph) AddQueue(name string, capacity int) (int, error) {
	if _, dup := g.qIndex[name]; dup {
		return -1, fmt.Errorf("stream: duplicate queue %q", name)
	}
	q, err := NewQueue(name, capacity)
	if err != nil {
		return -1, err
	}
	g.qIndex[name] = len(g.queues)
	g.queues = append(g.queues, q)
	return len(g.queues) - 1, nil
}

// AddTask registers a task with its input and output queue indices.
// A task fires by consuming one frame from every input and, when the
// frame's work completes, producing one frame into every output.
func (g *Graph) AddTask(t *task.Task, inputs, outputs []int) (int, error) {
	if _, dup := g.tIndex[t.Name]; dup {
		return -1, fmt.Errorf("stream: duplicate task %q", t.Name)
	}
	for _, qi := range append(append([]int(nil), inputs...), outputs...) {
		if qi < 0 || qi >= len(g.queues) {
			return -1, fmt.Errorf("stream: task %q references unknown queue %d", t.Name, qi)
		}
	}
	if len(inputs) == 0 && len(outputs) == 0 {
		return -1, fmt.Errorf("stream: task %q is disconnected", t.Name)
	}
	g.tIndex[t.Name] = len(g.tasks)
	g.tasks = append(g.tasks, t)
	g.inputs = append(g.inputs, append([]int(nil), inputs...))
	g.outputs = append(g.outputs, append([]int(nil), outputs...))
	return len(g.tasks) - 1, nil
}

// SetSource attaches the paced source to queue qi with the given period.
func (g *Graph) SetSource(qi int, period float64) error {
	if qi < 0 || qi >= len(g.queues) {
		return fmt.Errorf("stream: source queue %d unknown", qi)
	}
	if period <= 0 {
		return errors.New("stream: source period must be positive")
	}
	g.source = Source{queue: qi, period: period}
	return nil
}

// SetSink attaches the deadline sink to queue qi. Playback starts once
// the queue first reaches prefill frames; after that one frame is due
// every period. A prefill above the queue's capacity could never be
// reached, so it is refused.
func (g *Graph) SetSink(qi int, period float64, prefill int) error {
	if qi < 0 || qi >= len(g.queues) {
		return fmt.Errorf("stream: sink queue %d unknown", qi)
	}
	if period <= 0 {
		return errors.New("stream: sink period must be positive")
	}
	if prefill < 1 {
		return errors.New("stream: sink prefill must be >= 1")
	}
	if q := g.queues[qi]; prefill > q.cap {
		return fmt.Errorf("stream: sink prefill %d exceeds queue %q capacity %d", prefill, q.name, q.cap)
	}
	g.sink = Sink{queue: qi, period: period, prefill: prefill}
	return nil
}

// NumTasks returns the number of registered tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// Task returns task i.
func (g *Graph) Task(i int) *task.Task { return g.tasks[i] }

// Tasks returns the underlying task slice (shared, not a copy).
func (g *Graph) Tasks() []*task.Task { return g.tasks }

// TaskIndex returns the index of the named task.
func (g *Graph) TaskIndex(name string) (int, bool) {
	i, ok := g.tIndex[name]
	return i, ok
}

// Queue returns queue i.
func (g *Graph) Queue(i int) *Queue { return g.queues[i] }

// NumQueues returns the queue count.
func (g *Graph) NumQueues() int { return len(g.queues) }

// QueueIndex returns the index of the named queue.
func (g *Graph) QueueIndex(name string) (int, bool) {
	i, ok := g.qIndex[name]
	return i, ok
}

// CanFire reports whether task i may begin a frame: every input queue
// non-empty and every output queue with room (space is reserved at fire
// time so a completed frame never blocks).
func (g *Graph) CanFire(i int) bool {
	if g.tasks[i].InFlight || !g.tasks[i].Runnable() {
		return false
	}
	for _, qi := range g.inputs[i] {
		if g.queues[qi].Empty() {
			return false
		}
	}
	for _, qi := range g.outputs[i] {
		if g.queues[qi].Full() {
			return false
		}
	}
	return true
}

// BeginFrame consumes one frame from every input of task i and starts
// the task's frame work. The caller must have checked CanFire.
func (g *Graph) BeginFrame(i int) error {
	if !g.CanFire(i) {
		return fmt.Errorf("stream: task %q cannot fire", g.tasks[i].Name)
	}
	for _, qi := range g.inputs[i] {
		if !g.queues[qi].Pop() {
			// CanFire guaranteed non-empty; this is a graph bug.
			panic(fmt.Sprintf("stream: queue %q empty during BeginFrame", g.queues[qi].Name()))
		}
	}
	return g.tasks[i].StartFrame()
}

// FinishFrame propagates task i's completed frame into every output
// queue. The engine calls it when Task.Execute reports completion.
// Space was checked by CanFire at begin time, but another producer
// sharing a queue may have filled it within the tick; Push counts
// that as an overrun.
func (g *Graph) FinishFrame(i int) {
	for _, qi := range g.outputs[i] {
		g.queues[qi].Push()
	}
}

// Finalize validates the graph. It must be called once wiring is
// complete, before execution.
func (g *Graph) Finalize() error {
	if len(g.tasks) == 0 {
		return errors.New("stream: no tasks")
	}
	if g.source.period == 0 {
		return errors.New("stream: no source attached")
	}
	if g.sink.period == 0 {
		return errors.New("stream: no sink attached")
	}
	// Every queue needs at least one producer (task output or source)
	// and one consumer (task input or sink).
	prod := make([]int, len(g.queues))
	cons := make([]int, len(g.queues))
	prod[g.source.queue]++
	cons[g.sink.queue]++
	for i := range g.tasks {
		for _, qi := range g.inputs[i] {
			cons[qi]++
		}
		for _, qi := range g.outputs[i] {
			prod[qi]++
		}
	}
	for qi, q := range g.queues {
		if prod[qi] == 0 {
			return fmt.Errorf("stream: queue %q has no producer", q.Name())
		}
		if cons[qi] == 0 {
			return fmt.Errorf("stream: queue %q has no consumer", q.Name())
		}
	}
	return nil
}

// AdvanceSource emits frames due by time now into the head queue and
// reports whether the queue changed.
func (g *Graph) AdvanceSource(now float64) (pushed bool) {
	s := &g.source
	if !s.started {
		s.started = true
		s.base = now
	}
	for now >= s.nextEmissionAt()-1e-12 {
		if g.queues[s.queue].Push() {
			s.Emitted++
			pushed = true
		} else {
			s.Dropped++
		}
		s.next++
	}
	return pushed
}

// AdvanceSink consumes frames due by time now, records misses, and
// reports whether the queue changed.
func (g *Graph) AdvanceSink(now float64) (popped bool) {
	k := &g.sink
	q := g.queues[k.queue]
	if !k.playing {
		if q.Len() >= k.prefill {
			k.playing = true
			k.base = now
		}
		return false
	}
	for now >= k.nextDeadlineAt()-1e-12 {
		if q.Pop() {
			k.Consumed++
			popped = true
		} else {
			k.Misses++
		}
		k.fired++
	}
	return popped
}

// NextSourceEmissionAt returns the absolute time of the next source
// emission, for the engine's event horizon. Before pacing has started
// the source emits on the very next advance, reported as -Inf.
func (g *Graph) NextSourceEmissionAt() float64 {
	if !g.source.started {
		return math.Inf(-1)
	}
	return g.source.nextEmissionAt()
}

// NextSinkDeadlineAt returns the absolute time of the next sink
// deadline. A sink still prefilling returns +Inf (its queue only
// changes at other events); a sink about to start playback returns
// -Inf (imminent).
func (g *Graph) NextSinkDeadlineAt() float64 {
	k := &g.sink
	if !k.playing {
		if g.queues[k.queue].Len() >= k.prefill {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	return k.nextDeadlineAt()
}

// SourceStats returns a copy of the source counters.
func (g *Graph) SourceStats() Source { return g.source }

// SinkStats returns a copy of the sink counters.
func (g *Graph) SinkStats() Sink { return g.sink }

// SourceConfig returns the attached source's queue index and period,
// for deriving a declarative spec from a built graph.
func (g *Graph) SourceConfig() (queue int, periodS float64) {
	return g.source.queue, g.source.period
}

// SinkConfig returns the attached sink's queue index, period and
// prefill threshold.
func (g *Graph) SinkConfig() (queue int, periodS float64, prefill int) {
	return g.sink.queue, g.sink.period, g.sink.prefill
}

// Inputs returns the input queue indices of task i (shared slice).
func (g *Graph) Inputs(i int) []int { return g.inputs[i] }

// Outputs returns the output queue indices of task i (shared slice).
func (g *Graph) Outputs(i int) []int { return g.outputs[i] }

// Ckpt writes or reads the graph's mutable state: every task's load
// and progress, every queue's frame count and counters, and the source
// and sink schedules. Task and queue handles stay valid across a
// restore; only their contents change.
func (g *Graph) Ckpt(c *ckpt.Codec) {
	c.Len(len(g.tasks))
	for _, t := range g.tasks {
		c.Float(&t.FSE)
		c.Float(&t.CyclesPerFrame)
		c.Float(&t.Progress)
		c.Int64(&t.FramesCompleted)
		c.Int(&t.Core)
		c.Int(&t.Migrations)
		c.Int((*int)(&t.State))
		c.Bool(&t.InFlight)
	}
	c.Len(len(g.queues))
	for _, q := range g.queues {
		c.Float(&q.occSum)
		c.Int64(&q.occSamples)
		c.Int(&q.maxOcc)
		c.Int64(&q.overruns)
		c.Int(&q.n)
		if c.Reading() && (q.n < 0 || q.n > q.cap) {
			c.Fail(fmt.Errorf("stream: restoring %d frames into queue %q of capacity %d", q.n, q.name, q.cap))
			q.n = 0
		}
	}
	s := &g.source
	c.Float(&s.base)
	c.Int64(&s.next)
	c.Bool(&s.started)
	c.Int64(&s.Emitted)
	c.Int64(&s.Dropped)
	k := &g.sink
	c.Bool(&k.playing)
	c.Float(&k.base)
	c.Int64(&k.fired)
	c.Int64(&k.Consumed)
	c.Int64(&k.Misses)
}
