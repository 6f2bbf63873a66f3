package policy

import (
	"math"
	"testing"
)

// ladder mimics the 533/266/133 MHz governor for snapshots.
func ladder(fse float64) float64 {
	need := fse * 533e6
	for _, f := range []float64{133e6, 266e6, 533e6} {
		if f >= need-1e-3 {
			return f
		}
	}
	return 533e6
}

// table2Snapshot builds the paper's post-warmup state: core1 hot at
// 533 MHz with BPF1+DEMOD, cores 2/3 cooler at 266 MHz.
func table2Snapshot(now float64) *Snapshot {
	tasks := []TaskView{
		{Index: 0, Name: "LPF", Core: 2, FSE: 0.094, StateBytes: 64 << 10},
		{Index: 1, Name: "DEMOD", Core: 0, FSE: 0.283, StateBytes: 64 << 10},
		{Index: 2, Name: "BPF1", Core: 0, FSE: 0.367, StateBytes: 64 << 10},
		{Index: 3, Name: "BPF2", Core: 1, FSE: 0.304, StateBytes: 64 << 10},
		{Index: 4, Name: "BPF3", Core: 2, FSE: 0.304, StateBytes: 64 << 10},
		{Index: 5, Name: "SUM", Core: 1, FSE: 0.031, StateBytes: 64 << 10},
	}
	temp := []float64{62.3, 54.0, 52.2}
	freq := []float64{533e6, 266e6, 266e6}
	mean := (temp[0] + temp[1] + temp[2]) / 3
	meanF := (freq[0] + freq[1] + freq[2]) / 3
	return &Snapshot{
		Time:     now,
		Temp:     temp,
		Freq:     freq,
		Powered:  []bool{true, true, true},
		MeanTemp: mean,
		MeanFreq: meanF,
		Tasks:    tasks,
		LevelFor: ladder,
	}
}

func TestNewDefaultsAndValidation(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 3})
	p := b.p
	if p.MinInterval != DefaultMinInterval || p.TopK != DefaultTopK || p.MaxFreezeS != DefaultMaxFreezeS {
		t.Errorf("defaults not applied: %+v", p)
	}
	if b.Name() != "thermal-balance" {
		t.Errorf("name = %q", b.Name())
	}
	defer func() {
		if recover() == nil {
			t.Error("New without Delta did not panic")
		}
	}()
	NewBalancer(BalancerParams{})
}

func TestHotTriggerMigratesFromHotToColdest(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 3})
	s := table2Snapshot(20)
	acts := b.Decide(s)
	if len(acts) != 1 {
		t.Fatalf("actions = %v, want one migration", acts)
	}
	mg, ok := acts[0].(Migrate)
	if !ok {
		t.Fatalf("action type %T", acts[0])
	}
	// Source must be the hot core 0; Eq. 1 picks the coldest target
	// (core 2: largest (t_tgt-mean)² divisor).
	if s.Tasks[taskByIndex(t, s, mg.Task)].Core != 0 {
		t.Errorf("migrated task from core %d, want 0", s.Tasks[mg.Task].Core)
	}
	if mg.Dst != 2 {
		t.Errorf("destination = %d, want 2 (coldest)", mg.Dst)
	}
	// DEMOD (FSE .283) gives lower post-move imbalance than BPF1.
	if s.Tasks[taskByIndex(t, s, mg.Task)].Name != "DEMOD" {
		t.Errorf("moved %s, want DEMOD", s.Tasks[mg.Task].Name)
	}
	hot, cold := b.hotTriggers, b.coldTriggers
	if hot != 1 || cold != 0 {
		t.Errorf("triggers = (%d,%d)", hot, cold)
	}
}

func taskByIndex(t *testing.T, s *Snapshot, idx int) int {
	t.Helper()
	for i, tv := range s.Tasks {
		if tv.Index == idx {
			return i
		}
	}
	t.Fatalf("task index %d not in snapshot", idx)
	return -1
}

func TestNoTriggerInsideBand(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 8}) // band wide enough to cover the spread
	if acts := b.Decide(table2Snapshot(20)); acts != nil {
		t.Errorf("actions inside band: %v", acts)
	}
}

func TestRateLimitBetweenMigrations(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 3, MinInterval: 1.0})
	if acts := b.Decide(table2Snapshot(10)); len(acts) != 1 {
		t.Fatal("first decision did not migrate")
	}
	if acts := b.Decide(table2Snapshot(10.5)); acts != nil {
		t.Errorf("second migration inside MinInterval: %v", acts)
	}
	if acts := b.Decide(table2Snapshot(11.1)); len(acts) != 1 {
		t.Error("migration after MinInterval suppressed")
	}
}

func TestNoActionWhileMigrationPending(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 3})
	s := table2Snapshot(10)
	s.MigrationsPending = 1
	if acts := b.Decide(s); acts != nil {
		t.Errorf("decided %v with migration pending", acts)
	}
}

func TestFrequencyConditionBlocksEqualFrequencies(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 3})
	s := table2Snapshot(10)
	// All cores at the same frequency: condition 2 fails everywhere.
	s.Freq = []float64{266e6, 266e6, 266e6}
	s.MeanFreq = 266e6
	if acts := b.Decide(s); acts != nil {
		t.Errorf("migration despite equal frequencies: %v", acts)
	}
}

func TestThermalConditionRequiresOpposition(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 3})
	s := table2Snapshot(10)
	// Raise every core above the would-be mean - impossible by
	// construction of a mean, so instead make cold cores sit exactly on
	// the mean: products are zero -> no candidate.
	s.Temp = []float64{62.3, 56.0, 56.0}
	s.MeanTemp = 56.0 // core1 still +6.3 above
	if acts := b.Decide(s); acts != nil {
		t.Errorf("migration without thermal opposition: %v", acts)
	}
}

func TestPowerConditionBlocksCostlyMove(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 3})
	s := table2Snapshot(10)
	// Make the cold target so loaded that any incoming task forces a
	// frequency rise without the source dropping: power would increase.
	for i := range s.Tasks {
		if s.Tasks[i].Core == 2 {
			s.Tasks[i].FSE = 0.45
		}
	}
	// Source core 0 keeps large tasks; removing one does not drop the
	// level (both remain > 0.5 total)... construct explicitly:
	s.Tasks[1].FSE = 0.40 // DEMOD
	s.Tasks[2].FSE = 0.45 // BPF1 -> core0 total 0.85; removing 0.40 leaves 0.45 -> still 533? 0.45*533=240 -> 266!
	// Removing DEMOD drops core0 to 266 but pushes core2 to
	// 0.45+0.45+0.40=1.3 -> 533: after = 266²+533² = before. Equality is
	// allowed, so tighten: make core2 already at 533 impossible...
	// Simpler: make the only movable task huge so the destination
	// saturates while the source stays at 533.
	s.Tasks[1].FSE = 0.08 // small DEMOD: removing it keeps core0 at 533
	s.Tasks[2].FSE = 0.60 // BPF1 dominates core0
	// Moving BPF1: core0 -> 0.08 => 133 MHz; core2 -> .45+.45+.6=1.5 => 533.
	// after = 133² + 533² < before = 533² + 266²? before=3.5e17, after=3.0e17: allowed!
	// Moving DEMOD: core0 stays 533 (0.60), core2 -> 0.98 => 533.
	// after = 533²+533² > before -> blocked.
	acts := b.Decide(s)
	if len(acts) != 1 {
		t.Fatalf("expected exactly the cheap move, got %v", acts)
	}
	mg := acts[0].(Migrate)
	if s.Tasks[taskByIndex(t, s, mg.Task)].Name != "BPF1" {
		t.Errorf("moved %s; DEMOD move should be power-blocked", s.Tasks[taskByIndex(t, s, mg.Task)].Name)
	}
}

func TestColdTriggerPullsLoadFromHotCore(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 3})
	s := table2Snapshot(10)
	// Compress the top: cores 1/2 warm but inside the band, core 3 very
	// cold -> cold trigger; partner must be a core above the mean.
	s.Temp = []float64{53.0, 52.5, 45.0}
	s.MeanTemp = (53.0 + 52.5 + 45.0) / 3 // 50.17; band [47.17, 53.17]
	acts := b.Decide(s)
	if len(acts) != 1 {
		t.Fatalf("cold trigger produced %v", acts)
	}
	mg := acts[0].(Migrate)
	if mg.Dst != 2 {
		t.Errorf("cold trigger destination = %d, want the cold core 2", mg.Dst)
	}
	src := s.Tasks[taskByIndex(t, s, mg.Task)].Core
	if s.Temp[src] <= s.MeanTemp {
		t.Errorf("cold trigger pulled from core %d below mean", src)
	}
	if cold := b.coldTriggers; cold != 1 {
		t.Errorf("cold triggers = %d", cold)
	}
}

func TestFreezeCostFilter(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 3, MaxFreezeS: 0.010})
	s := table2Snapshot(10)
	s.EstimateFreeze = func(ti int) float64 { return 0.050 } // all too slow
	if acts := b.Decide(s); acts != nil {
		t.Errorf("cost filter did not reject: %v", acts)
	}
	if b.filtered == 0 {
		t.Error("filter counter not incremented")
	}
	// Cheap migrations pass.
	b2 := NewBalancer(BalancerParams{Delta: 3, MaxFreezeS: 0.10})
	s2 := table2Snapshot(10)
	s2.EstimateFreeze = func(ti int) float64 { return 0.050 }
	if acts := b2.Decide(s2); len(acts) != 1 {
		t.Error("affordable migration rejected")
	}
}

func TestMigratingTasksExcluded(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 3})
	s := table2Snapshot(10)
	for i := range s.Tasks {
		if s.Tasks[i].Core == 0 {
			s.Tasks[i].Migrating = true
		}
	}
	if acts := b.Decide(s); acts != nil {
		t.Errorf("migrated an already-migrating task: %v", acts)
	}
}

func TestUnpoweredCoresIgnored(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 3})
	s := table2Snapshot(10)
	s.Powered[0] = false // hot core is off: no trigger from it
	s.Freq[0] = 0
	// Mean unchanged for test purposes; core2/3 inside band.
	if acts := b.Decide(s); acts != nil {
		t.Errorf("actions involving unpowered core: %v", acts)
	}
}

func TestTopKLimitsCandidates(t *testing.T) {
	// With TopK=1 only the highest-load task (BPF1) is considered; its
	// move still satisfies the power condition, so it is chosen even
	// though DEMOD would balance better.
	b := NewBalancer(BalancerParams{Delta: 3, TopK: 1})
	s := table2Snapshot(10)
	acts := b.Decide(s)
	if len(acts) != 1 {
		t.Fatalf("actions = %v", acts)
	}
	mg := acts[0].(Migrate)
	if s.Tasks[taskByIndex(t, s, mg.Task)].Name != "BPF1" {
		t.Errorf("TopK=1 moved %s, want BPF1", s.Tasks[taskByIndex(t, s, mg.Task)].Name)
	}
}

func TestEquation1PrefersColderTarget(t *testing.T) {
	b := NewBalancer(BalancerParams{Delta: 2})
	s := table2Snapshot(10)
	// Two valid cold targets; core2 colder than its Table 2 value.
	s.Temp = []float64{62.3, 50.0, 52.2}
	s.MeanTemp = (62.3 + 50.0 + 52.2) / 3
	acts := b.Decide(s)
	if len(acts) != 1 {
		t.Fatalf("actions = %v", acts)
	}
	if mg := acts[0].(Migrate); mg.Dst != 1 {
		t.Errorf("dst = %d, want 1 (coldest => minimal Eq.1 cost)", mg.Dst)
	}
}

func TestDecideIsDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		b := NewBalancer(BalancerParams{Delta: 3})
		acts := b.Decide(table2Snapshot(10))
		if len(acts) != 1 {
			t.Fatal("no action")
		}
		mg := acts[0].(Migrate)
		if mg.Dst != 2 {
			t.Fatalf("iteration %d: dst %d", i, mg.Dst)
		}
	}
}

func TestActionStrings(t *testing.T) {
	if (Migrate{Task: 1, Dst: 2}).String() == "" {
		t.Error("empty Migrate string")
	}
	if (StopCore{Core: 1}).String() == "" || (StartCore{Core: 1}).String() == "" {
		t.Error("empty stop/start strings")
	}
}

func TestSnapshotHelpers(t *testing.T) {
	s := table2Snapshot(0)
	if got := s.FSEOn(0); math.Abs(got-0.65) > 1e-9 {
		t.Errorf("FSEOn(0) = %g", got)
	}
	if got := len(s.TasksOn(1)); got != 2 {
		t.Errorf("TasksOn(1) = %d entries", got)
	}
	if s.NumCores() != 3 {
		t.Errorf("NumCores = %d", s.NumCores())
	}
}
