// Package migrate implements the task-migration middleware of the
// paper's MPOS (Section 3.2): a master daemon that arbitrates migration
// requests, per-core slave daemons, checkpoint-based freezing, and the
// two migration mechanisms:
//
//   - task-replication: a suspended replica of each task exists in every
//     local OS, so only the live context (64 KB, the minimum OS
//     allocation) crosses the shared bus;
//   - task-recreation: the process is killed and re-created via
//     fork/exec on the destination, which additionally reloads the code
//     image from the filesystem and pays an allocation overhead — the
//     offset and steeper slope of the paper's Figure 2.
//
// Migration is only permitted at user-defined checkpoints, which the
// streaming library places at frame boundaries.
package migrate

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"thermbal/internal/bus"
	"thermbal/internal/ckpt"
	"thermbal/internal/task"
)

// Mechanism selects the migration implementation.
type Mechanism int

const (
	// Replication is the task-replication mechanism (default: the
	// paper's MicroBlaze platform cannot run PIC code, so recreation is
	// unavailable there).
	Replication Mechanism = iota
	// Recreation is the fork/exec task-recreation mechanism.
	Recreation
)

// String names the mechanism.
func (m Mechanism) String() string {
	switch m {
	case Replication:
		return "task-replication"
	case Recreation:
		return "task-recreation"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Phase is the state of one migration.
type Phase int

const (
	// WaitCheckpoint: requested, task still running toward its next
	// frame boundary.
	WaitCheckpoint Phase = iota
	// Transferring: task frozen, context crossing the shared bus.
	Transferring
	// Restoring: transfer done; destination OS re-creating the process
	// (recreation only; replication resumes immediately).
	Restoring
	// Done: task resumed on the destination core.
	Done
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case WaitCheckpoint:
		return "wait-checkpoint"
	case Transferring:
		return "transferring"
	case Restoring:
		return "restoring"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Migration tracks one in-flight task move.
type Migration struct {
	Task     *task.Task
	TaskIdx  int
	Src, Dst int
	Phase    Phase

	FrozenAt float64
	// CompletedAt is set as the migration finishes, when it leaves the
	// pending set, so no checkpoint holds it.
	CompletedAt float64

	transfer   *bus.Transfer
	reload     *bus.Transfer // recreation only: concurrent code reload
	restoreEnd float64
	bytes      float64
}

// Bytes returns the payload size this migration moves across the bus.
func (m *Migration) Bytes() float64 { return m.bytes }

// FreezeDuration returns how long the task was frozen (valid once Done).
func (m *Migration) FreezeDuration() float64 { return m.CompletedAt - m.FrozenAt }

// Stats aggregates migration activity for the experiment reports
// (paper metrics ii: average quantity of migrated data and number of
// migrated tasks).
type Stats struct {
	Completed  int
	BytesMoved float64
	FreezeTime float64 // summed task-frozen seconds
}

// Manager is the master daemon: it owns pending migrations and drives
// them through the checkpoint/transfer/restore protocol.
type Manager struct {
	bus  *bus.Bus
	mech Mechanism

	pending map[int]*Migration // task index -> active migration
	stats   Stats

	// OnComplete, when non-nil, is invoked as each migration finishes
	// (the engine rebinds the scheduler and DVFS there).
	OnComplete func(*Migration)
}

// DefaultRestoreOverheadS models the fork/exec + dynamic-loading cost of
// task recreation (the Figure 2 curve offset), charged after its
// transfer completes.
const DefaultRestoreOverheadS = 15e-3

// NewManager creates a migration manager over the given bus.
func NewManager(b *bus.Bus, mech Mechanism) *Manager {
	return &Manager{
		bus:     b,
		mech:    mech,
		pending: map[int]*Migration{},
	}
}

// ErrBusy is returned when the task already has a migration in flight.
var ErrBusy = errors.New("migrate: task already migrating")

// ErrSamePlace is returned when source and destination coincide.
var ErrSamePlace = errors.New("migrate: source and destination are the same core")

// Request asks the master daemon to move task ti to dst. The task keeps
// running until its next checkpoint.
func (m *Manager) Request(t *task.Task, ti, dst int) (*Migration, error) {
	if _, busy := m.pending[ti]; busy {
		return nil, ErrBusy
	}
	if t.Core == dst {
		return nil, ErrSamePlace
	}
	mg := &Migration{
		Task:    t,
		TaskIdx: ti,
		Src:     t.Core,
		Dst:     dst,
		Phase:   WaitCheckpoint,
	}
	m.pending[ti] = mg
	return mg, nil
}

// Pending returns the active migration for task ti, if any.
func (m *Manager) Pending(ti int) (*Migration, bool) {
	mg, ok := m.pending[ti]
	return mg, ok
}

// NumPending returns the count of in-flight migrations.
func (m *Manager) NumPending() int { return len(m.pending) }

// NextPhaseTransitionAt returns the earliest absolute time at which a
// pending migration changes phase independently of frame-boundary and
// bus events: the end of the earliest restore window (task-recreation's
// fork/exec overhead). +Inf when no such self-timed transition is
// scheduled — WaitCheckpoint advances only at checkpoints and
// Transferring only on bus completion, both of which the engine's
// event horizon already bounds.
func (m *Manager) NextPhaseTransitionAt() float64 {
	if len(m.pending) == 0 {
		// Fast exit for the common no-migration-in-flight case: the
		// event-horizon scan calls this every span, and even an empty
		// map iteration costs a runtime call.
		return math.Inf(1)
	}
	at := math.Inf(1)
	for _, mg := range m.pending {
		if mg.Phase == Restoring && mg.restoreEnd < at {
			at = mg.restoreEnd
		}
	}
	return at
}

// AtCheckpoint notifies the middleware that task ti reached a frame
// boundary at time now. If a migration is waiting, the task freezes and
// its context transfer starts. Returns true when a freeze happened.
func (m *Manager) AtCheckpoint(ti int, now float64) (bool, error) {
	mg, ok := m.pending[ti]
	if !ok || mg.Phase != WaitCheckpoint {
		return false, nil
	}
	if err := mg.Task.Freeze(); err != nil {
		return false, fmt.Errorf("migrate: %w", err)
	}
	mg.Phase = Transferring
	mg.FrozenAt = now
	mg.bytes = mg.Task.MigrationBytes(m.mech == Recreation)
	// The context copy moves the live state through shared memory.
	tr, err := m.bus.Start("migr:"+mg.Task.Name, mg.Task.StateBytes)
	if err != nil {
		return false, err
	}
	mg.transfer = tr
	if m.mech == Recreation {
		// The code image is reloaded from the filesystem through the
		// same bus, concurrently with the context copy: a second
		// transfer that adds contention (Figure 2's steeper recreation
		// slope).
		rl, err := m.bus.Start("reload:"+mg.Task.Name, mg.Task.CodeBytes)
		if err != nil {
			return false, err
		}
		mg.reload = rl
	}
	return true, nil
}

// Advance progresses in-flight migrations to time now. The engine must
// advance the bus separately (it owns bus time). Iteration is in task-
// index order so completion side effects are deterministic.
func (m *Manager) Advance(now float64) {
	if len(m.pending) == 0 {
		return
	}
	keys := make([]int, 0, len(m.pending))
	for ti := range m.pending {
		keys = append(keys, ti)
	}
	sort.Ints(keys)
	for _, ti := range keys {
		mg := m.pending[ti]
		switch mg.Phase {
		case Transferring:
			if mg.transfer.Done() && (mg.reload == nil || mg.reload.Done()) {
				if m.mech == Recreation {
					mg.Phase = Restoring
					mg.restoreEnd = now + DefaultRestoreOverheadS
				} else {
					m.complete(ti, mg, now)
				}
			}
		case Restoring:
			if now >= mg.restoreEnd {
				m.complete(ti, mg, now)
			}
		}
	}
}

func (m *Manager) complete(ti int, mg *Migration, now float64) {
	mg.Phase = Done
	mg.CompletedAt = now
	mg.Task.Unfreeze(mg.Dst)
	delete(m.pending, ti)

	m.stats.Completed++
	m.stats.BytesMoved += mg.bytes
	m.stats.FreezeTime += mg.FreezeDuration()
	if m.OnComplete != nil {
		m.OnComplete(mg)
	}
}

// Stats returns the aggregate statistics. Per-task counts are each
// task's own Migrations.
func (m *Manager) Stats() Stats { return m.stats }

// EstimateFreezeS predicts the freeze time of migrating t with the
// current mechanism, assuming `competitors` concurrent bus transfers.
// The balancing policy uses this to filter requests by cost.
func (m *Manager) EstimateFreezeS(t *task.Task, competitors int) float64 {
	bytes := t.MigrationBytes(m.mech == Recreation)
	lat := m.bus.LatencyEstimate(bytes, competitors)
	if m.mech == Recreation {
		lat += DefaultRestoreOverheadS
	}
	return lat
}

// Ckpt writes or reads the manager's pending migrations, in task-index
// order, and its statistics. A restore needs the bus restored first
// (see ckptTransfer). tasks is the graph's task slice.
func (m *Manager) Ckpt(c *ckpt.Codec, tasks []*task.Task) {
	migs := make([]*Migration, 0, len(m.pending))
	for _, ti := range slices.Sorted(maps.Keys(m.pending)) {
		migs = append(migs, m.pending[ti])
	}
	n := len(migs)
	c.Count(&n)
	if c.Reading() {
		m.pending = make(map[int]*Migration, n)
		migs = make([]*Migration, n)
		for i := range migs {
			migs[i] = new(Migration)
		}
	}
	for _, mg := range migs {
		c.Int(&mg.TaskIdx)
		c.Int(&mg.Src)
		c.Int(&mg.Dst)
		c.Int((*int)(&mg.Phase))
		c.Float(&mg.FrozenAt)
		c.Float(&mg.restoreEnd)
		c.Float(&mg.bytes)
		for _, tr := range []**bus.Transfer{&mg.transfer, &mg.reload} {
			m.ckptTransfer(c, tr)
		}
		if !c.Reading() {
			continue
		}
		if mg.TaskIdx < 0 || mg.TaskIdx >= len(tasks) {
			c.Fail(fmt.Errorf("migrate: restoring a migration of task %d onto %d tasks", mg.TaskIdx, len(tasks)))
			break
		}
		mg.Task = tasks[mg.TaskIdx]
		m.pending[mg.TaskIdx] = mg
	}
	st := &m.stats
	c.Int(&st.Completed)
	c.Float(&st.BytesMoved)
	c.Float(&st.FreezeTime)
}

// ckptTransfer writes or reads a migration's transfer *tr, if any. A
// restored transfer still in flight is the bus's own handle for it; a
// finished one is a private copy.
func (m *Manager) ckptTransfer(c *ckpt.Codec, tr **bus.Transfer) {
	has := *tr != nil
	if c.Bool(&has); !has {
		return
	}
	if c.Reading() {
		*tr = new(bus.Transfer)
	}
	t := *tr
	t.Ckpt(c)
	if !c.Reading() || t.Done() {
		return
	}
	if *tr = m.bus.InFlight(t.ID()); *tr == nil {
		c.Fail(fmt.Errorf("migrate: transfer %d (%s) is not in flight on the bus", t.ID(), t.Label()))
		*tr = t
	}
}
