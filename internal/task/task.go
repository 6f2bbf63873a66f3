// Package task defines the task model of the streaming MPOS: processes
// characterised by their full-speed-equivalent load (FSE) — the load a
// task imposes when its core runs at the maximum frequency (paper
// Section 3) — plus the memory footprint that determines migration cost.
//
// Tasks are migratable only at checkpoints (frame boundaries); between a
// migration request and the checkpoint the task keeps running, and while
// its state crosses the shared bus it is frozen (paper Section 3.2).
package task

import (
	"errors"
	"fmt"
)

// DefaultStateBytes is the migration payload per task: the paper reports
// each migration transfers 64 KB, the minimum memory space allocated by
// the OS (Section 5.2).
const DefaultStateBytes = 64 << 10

// DefaultCodeBytes is the program image size reloaded from the
// filesystem by the task-recreation mechanism.
const DefaultCodeBytes = 48 << 10

// State is the lifecycle state of a task.
type State int

const (
	// Ready means the task is schedulable on its current core.
	Ready State = iota
	// Frozen means the task is mid-migration: descheduled, context in
	// flight on the shared bus.
	Frozen
)

// String names the state.
func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Frozen:
		return "frozen"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Task is a streaming process. Fields are mutated only by the simulation
// engine and the migration middleware; Task itself carries no locking.
type Task struct {
	// Name identifies the task ("BPF1", "DEMOD", ...).
	Name string
	// FSE is the full-speed-equivalent load in [0,1]: the utilization
	// the task imposes at the maximum core frequency.
	FSE float64
	// StateBytes is the context transferred on migration.
	StateBytes float64
	// CodeBytes is the program image reloaded by task-recreation.
	CodeBytes float64

	// Core is the current placement (0-based core ID).
	Core int
	// State is Ready or Frozen.
	State State

	// CyclesPerFrame is the work per frame, derived from FSE, the
	// maximum frequency and the frame period.
	CyclesPerFrame float64

	// Progress is cycles already spent on the in-flight frame.
	Progress float64
	// InFlight reports whether a frame is currently being processed.
	InFlight bool

	// FramesCompleted counts finished frames.
	FramesCompleted int64
	// BusyCycles accumulates executed cycles.
	BusyCycles float64
	// Migrations counts completed migrations of this task.
	Migrations int
}

// New creates a task with the given FSE load and default memory
// footprint. It returns an error for loads outside (0,1].
func New(name string, fse float64) (*Task, error) {
	if name == "" {
		return nil, errors.New("task: empty name")
	}
	if fse <= 0 || fse > 1 {
		return nil, fmt.Errorf("task %q: FSE %g outside (0,1]", name, fse)
	}
	return &Task{
		Name:       name,
		FSE:        fse,
		StateBytes: DefaultStateBytes,
		CodeBytes:  DefaultCodeBytes,
		Core:       -1,
	}, nil
}

// MustNew is New, panicking on error; for static benchmark definitions.
func MustNew(name string, fse float64) *Task {
	t, err := New(name, fse)
	if err != nil {
		panic(err)
	}
	return t
}

// BindWork derives CyclesPerFrame for the given maximum frequency (Hz)
// and frame period (s): a task with FSE l consumes l*fmax*period cycles
// per frame, so at fmax it occupies exactly fraction l of the core.
func (t *Task) BindWork(fmaxHz, framePeriodS float64) {
	t.CyclesPerFrame = t.FSE * fmaxHz * framePeriodS
}

// Remaining returns cycles left on the in-flight frame (0 when no frame
// is in flight).
func (t *Task) Remaining() float64 {
	if !t.InFlight {
		return 0
	}
	r := t.CyclesPerFrame - t.Progress
	if r < 0 {
		return 0
	}
	return r
}

// Runnable reports whether the scheduler may give the task cycles.
func (t *Task) Runnable() bool { return t.State == Ready }

// Freeze marks the task frozen for migration. It must not be called
// mid-frame; the middleware only freezes at checkpoints.
func (t *Task) Freeze() error {
	if t.InFlight {
		return fmt.Errorf("task %q: freeze mid-frame (checkpoint protocol violated)", t.Name)
	}
	t.State = Frozen
	return nil
}

// Unfreeze returns the task to Ready on the given core (the migration
// destination).
func (t *Task) Unfreeze(core int) {
	t.State = Ready
	t.Core = core
	t.Migrations++
}

// StartFrame begins processing one frame. The caller (engine) must have
// checked firing conditions with the stream graph.
func (t *Task) StartFrame() error {
	if t.InFlight {
		return fmt.Errorf("task %q: StartFrame while a frame is in flight", t.Name)
	}
	if t.State != Ready {
		return fmt.Errorf("task %q: StartFrame in state %v", t.Name, t.State)
	}
	t.InFlight = true
	t.Progress = 0
	return nil
}

// Execute spends up to cycles on the in-flight frame and returns the
// cycles actually consumed and whether the frame completed.
func (t *Task) Execute(cycles float64) (consumed float64, frameDone bool) {
	if !t.InFlight || cycles <= 0 {
		return 0, false
	}
	need := t.CyclesPerFrame - t.Progress
	if cycles >= need {
		t.Progress = t.CyclesPerFrame
		t.BusyCycles += need
		t.InFlight = false
		t.FramesCompleted++
		return need, true
	}
	t.Progress += cycles
	t.BusyCycles += cycles
	return cycles, false
}

// ExecuteSpan spends n whole allocations of budget cycles each on the
// in-flight frame in one batch: Progress and BusyCycles advance by the
// exact product n·budget instead of n sequential additions. The caller
// must have bounded n so the frame cannot complete within the batch
// (the event-horizon fast path does); frameDone reports a bound
// violation — the frame would have finished — and leaves the task
// untouched so the caller can fail loudly.
//
// The batched sum n·budget is the exact value the per-tick loop
// approximates with n rounded additions, so results can differ from
// tick-by-tick execution in the last ULPs. The engine therefore only
// batches under the span-exact accounting mode that accompanies the
// expm thermal scheme; the default Euler configuration keeps the
// sequential path bit-for-bit.
func (t *Task) ExecuteSpan(budget float64, n int64) (consumed float64, frameDone bool) {
	if !t.InFlight || n <= 0 || budget <= 0 {
		return 0, false
	}
	total := budget * float64(n)
	if total >= t.CyclesPerFrame-t.Progress {
		return 0, true
	}
	t.Progress += total
	t.BusyCycles += total
	return total, false
}

// MigrationBytes returns the payload a migration of this task moves for
// the given mechanism: replication transfers the live context only;
// recreation additionally reloads the code image.
func (t *Task) MigrationBytes(recreation bool) float64 {
	if recreation {
		return t.StateBytes + t.CodeBytes
	}
	return t.StateBytes
}

// TotalFSE sums the FSE loads of the given tasks (helper for DVFS and
// policies).
func TotalFSE(tasks []*Task) float64 {
	var s float64
	for _, t := range tasks {
		s += t.FSE
	}
	return s
}

// OnCore filters tasks placed on the given core.
func OnCore(tasks []*Task, core int) []*Task {
	var out []*Task
	for _, t := range tasks {
		if t.Core == core {
			out = append(out, t)
		}
	}
	return out
}
