// Package policy defines the run-time management policy interface of
// the MPOS, the two baseline policies the paper compares against
// (Section 5.2) — Energy-Balancing (static mapping + DVFS, no run-time
// actions) and the modified Stop&Go (shut a core at the upper threshold,
// restart at the lower one, no migration) — and the paper's own
// contribution, the migration-based thermal Balancer. One static table
// (registry.go) maps every policy's name and aliases to its
// constructor.
package policy

import "fmt"

// TaskView is the policy-visible state of one task (what the slave
// daemons publish into the shared statistics area, Section 3.2).
type TaskView struct {
	// Index is the task's index in the stream graph.
	Index int
	// Name is the task name.
	Name string
	// Core is the current placement.
	Core int
	// FSE is the full-speed-equivalent load.
	FSE float64
	// StateBytes is the migration payload (the C_i of Eq. 1).
	StateBytes float64
	// Migrating reports an in-flight migration for this task.
	Migrating bool
}

// Snapshot is the state a policy sees at each evaluation (every thermal
// sensor update, 10 ms).
type Snapshot struct {
	// Time is the simulation time in seconds.
	Time float64
	// Temp is the per-core temperature (°C).
	Temp []float64
	// Freq is the per-core frequency (Hz; 0 when stopped).
	Freq []float64
	// Powered is the per-core power gate state.
	Powered []bool
	// MeanTemp is the current average core temperature (the t_mean the
	// thresholds are anchored to).
	MeanTemp float64
	// MeanFreq is the average core frequency (the f_mean of the second
	// candidate condition).
	MeanFreq float64
	// Tasks lists all tasks in graph order.
	Tasks []TaskView
	// MigrationsPending is the number of in-flight migrations.
	MigrationsPending int

	// LevelFor maps a total FSE load to the DVFS frequency the governor
	// would choose (policies use it to predict post-migration power).
	LevelFor func(fse float64) float64
	// EstimateFreeze predicts the freeze seconds of migrating task ti.
	EstimateFreeze func(ti int) float64
}

// NumCores returns the core count of the snapshot.
func (s *Snapshot) NumCores() int { return len(s.Temp) }

// TasksOn returns views of the tasks on core c, in graph order.
func (s *Snapshot) TasksOn(c int) []TaskView {
	var out []TaskView
	for _, t := range s.Tasks {
		if t.Core == c {
			out = append(out, t)
		}
	}
	return out
}

// FSEOn returns the summed FSE load on core c.
func (s *Snapshot) FSEOn(c int) float64 {
	var sum float64
	for _, t := range s.Tasks {
		if t.Core == c {
			sum += t.FSE
		}
	}
	return sum
}

// Action is a policy decision applied by the engine.
type Action interface {
	fmt.Stringer
	isAction()
}

// Migrate moves task Task to core Dst (at its next checkpoint).
type Migrate struct {
	Task int
	Dst  int
}

func (Migrate) isAction() {}

// String describes the action.
func (a Migrate) String() string { return fmt.Sprintf("migrate task %d -> core %d", a.Task, a.Dst) }

// StopCore power-gates a core (Stop&Go panic action).
type StopCore struct{ Core int }

func (StopCore) isAction() {}

// String describes the action.
func (a StopCore) String() string { return fmt.Sprintf("stop core %d", a.Core) }

// StartCore restarts a stopped core.
type StartCore struct{ Core int }

func (StartCore) isAction() {}

// String describes the action.
func (a StartCore) String() string { return fmt.Sprintf("start core %d", a.Core) }

// Policy decides management actions from periodic snapshots.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide inspects the snapshot and returns actions (nil for none).
	Decide(s *Snapshot) []Action
}

// None is the do-nothing policy: pure DVFS on the static mapping.
type None struct{}

// Name implements Policy.
func (None) Name() string { return "none" }

// Decide implements Policy: no actions, ever.
func (None) Decide(*Snapshot) []Action { return nil }

// EnergyBalance is the energy-balancing baseline [Bellosa et al.]: the
// task mapping is chosen offline so per-core energy is balanced (the
// paper's Table 2 placement) and DVFS runs underneath; at run time the
// policy takes no action. It exists as a distinct type so reports can
// label the configuration.
type EnergyBalance struct{}

// Name implements Policy.
func (EnergyBalance) Name() string { return "energy-balance" }

// Decide implements Policy: the balancing already happened offline.
func (EnergyBalance) Decide(*Snapshot) []Action { return nil }

// StopGo is the modified Stop&Go baseline (paper Section 5.2): the
// original policy shuts a core down at a panic temperature and restarts
// it after a timeout; the modified version uses the thermal-balancing
// upper threshold (mean+Delta) as the panic threshold and restarts when
// the core cools to the lower threshold (mean-Delta).
//
// The mean is captured at the instant the core stops: once a core is
// gated off the whole pipeline may stall and every temperature falls
// together, so a moving mean would chase the cooling core downward and
// never release it. Anchoring the band at the stop-time mean gives the
// 2·Delta hysteresis the original timeout provided.
type StopGo struct {
	// Delta is the threshold distance from the mean temperature (°C).
	Delta float64

	// stopRef[c] is the mean temperature captured when core c stopped.
	stopRef map[int]float64
}

// NewStopGo creates the modified Stop&Go policy.
func NewStopGo(delta float64) *StopGo {
	return &StopGo{Delta: delta, stopRef: map[int]float64{}}
}

// Name implements Policy.
func (p *StopGo) Name() string { return "stop&go" }

// Decide implements Policy.
func (p *StopGo) Decide(s *Snapshot) []Action {
	if p.stopRef == nil {
		p.stopRef = map[int]float64{}
	}
	var acts []Action
	for c := 0; c < s.NumCores(); c++ {
		switch {
		case s.Powered[c] && s.Temp[c] > s.MeanTemp+p.Delta:
			acts = append(acts, StopCore{Core: c})
			p.stopRef[c] = s.MeanTemp
		case !s.Powered[c] && s.Temp[c] < p.stopRef[c]-p.Delta:
			acts = append(acts, StartCore{Core: c})
			delete(p.stopRef, c)
		}
	}
	return acts
}

// Compile-time interface checks.
var (
	_ Policy = None{}
	_ Policy = EnergyBalance{}
	_ Policy = (*StopGo)(nil)
)
