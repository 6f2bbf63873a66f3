package migrate

import (
	"errors"
	"math"
	"testing"

	"thermbal/internal/bus"
	"thermbal/internal/task"
)

func newEnv(mech Mechanism) (*bus.Bus, *Manager, *task.Task) {
	b := bus.New()
	m := NewManager(b, mech)
	t := task.MustNew("BPF1", 0.367)
	t.BindWork(533e6, 0.02)
	t.Core = 0
	return b, m, t
}

// drive advances bus and manager together until the migration completes
// or the step budget runs out; returns elapsed seconds.
func drive(b *bus.Bus, m *Manager, mg *Migration, start float64) float64 {
	const h = 1e-3
	now := start
	for i := 0; i < 100000 && mg.Phase != Done; i++ {
		b.Advance(h)
		now += h
		m.Advance(now)
	}
	return now - start
}

func TestRequestValidation(t *testing.T) {
	_, m, tk := newEnv(Replication)
	if _, err := m.Request(tk, 0, 0); !errors.Is(err, ErrSamePlace) {
		t.Errorf("same-core request err = %v", err)
	}
	if _, err := m.Request(tk, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Request(tk, 0, 2); !errors.Is(err, ErrBusy) {
		t.Errorf("double request err = %v", err)
	}
	if m.NumPending() != 1 {
		t.Errorf("NumPending = %d", m.NumPending())
	}
}

func TestReplicationLifecycle(t *testing.T) {
	b, m, tk := newEnv(Replication)
	mg, err := m.Request(tk, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Phase != WaitCheckpoint {
		t.Fatalf("phase = %v", mg.Phase)
	}
	// Before the checkpoint the task keeps running.
	if !tk.Runnable() {
		t.Error("task not runnable while waiting for checkpoint")
	}
	froze, err := m.AtCheckpoint(0, 1.5)
	if err != nil || !froze {
		t.Fatalf("AtCheckpoint = (%v,%v)", froze, err)
	}
	if tk.Runnable() {
		t.Error("task runnable while transferring")
	}
	if mg.Phase != Transferring {
		t.Fatalf("phase = %v", mg.Phase)
	}
	var completed *Migration
	m.OnComplete = func(x *Migration) { completed = x }
	elapsed := drive(b, m, mg, 1.5)
	if mg.Phase != Done {
		t.Fatal("migration never completed")
	}
	if completed != mg {
		t.Error("OnComplete not invoked")
	}
	if tk.Core != 2 || !tk.Runnable() {
		t.Errorf("after migration: core %d, state %v", tk.Core, tk.State)
	}
	if tk.Migrations != 1 {
		t.Errorf("task migration count = %d", tk.Migrations)
	}
	// 64 KiB at 550 KiB/s ≈ 116 ms (+2 ms overhead).
	if elapsed < 0.11 || elapsed > 0.13 {
		t.Errorf("replication freeze = %g s, want ≈0.118", elapsed)
	}
	s := m.Stats()
	if s.Completed != 1 || s.BytesMoved != task.DefaultStateBytes {
		t.Errorf("stats = %+v", s)
	}
	if mg.FrozenAt != 1.5 {
		t.Errorf("frozen at %g, want the checkpoint's 1.5", mg.FrozenAt)
	}
	if m.NumPending() != 0 {
		t.Error("pending not cleared")
	}
}

func TestRecreationSlowerThanReplication(t *testing.T) {
	bR, mR, tkR := newEnv(Replication)
	bC, mC, tkC := newEnv(Recreation)

	mgR, _ := mR.Request(tkR, 0, 1)
	mR.AtCheckpoint(0, 0)
	dR := drive(bR, mR, mgR, 0)

	mgC, _ := mC.Request(tkC, 0, 1)
	mC.AtCheckpoint(0, 0)
	dC := drive(bC, mC, mgC, 0)

	if dC <= dR {
		t.Errorf("recreation (%g s) not slower than replication (%g s)", dC, dR)
	}
	// The gap must include at least the restore overhead.
	if dC-dR < DefaultRestoreOverheadS*0.9 {
		t.Errorf("recreation gap %g below restore overhead %g", dC-dR, DefaultRestoreOverheadS)
	}
	// Stats count state+code bytes for recreation.
	if got := mC.Stats().BytesMoved; got != task.DefaultStateBytes+task.DefaultCodeBytes {
		t.Errorf("recreation bytes = %g", got)
	}
}

func TestCheckpointWithoutPendingIsNoop(t *testing.T) {
	_, m, tk := newEnv(Replication)
	froze, err := m.AtCheckpoint(0, 1.0)
	if err != nil || froze {
		t.Errorf("AtCheckpoint no-op = (%v,%v)", froze, err)
	}
	_ = tk
}

func TestCheckpointMidFrameRejected(t *testing.T) {
	_, m, tk := newEnv(Replication)
	m.Request(tk, 0, 1)
	tk.StartFrame() // task mid-frame: freeze must fail
	if _, err := m.AtCheckpoint(0, 0.1); err == nil {
		t.Error("mid-frame freeze accepted")
	}
}

func TestSecondCheckpointWhileTransferring(t *testing.T) {
	_, m, tk := newEnv(Replication)
	mg, _ := m.Request(tk, 0, 1)
	m.AtCheckpoint(0, 0)
	froze, err := m.AtCheckpoint(0, 0.01)
	if err != nil || froze {
		t.Errorf("second checkpoint = (%v,%v), want no-op", froze, err)
	}
	if mg.Phase != Transferring {
		t.Errorf("phase = %v", mg.Phase)
	}
}

func TestEstimateMatchesActualFreeze(t *testing.T) {
	b, m, tk := newEnv(Replication)
	est := m.EstimateFreezeS(tk, 1)
	mg, _ := m.Request(tk, 0, 1)
	m.AtCheckpoint(0, 0)
	actual := drive(b, m, mg, 0)
	if diff := actual - est; diff < -0.005 || diff > 0.005 {
		t.Errorf("estimate %g vs actual %g", est, actual)
	}
}

func TestFreezeStatsAccumulate(t *testing.T) {
	b, m, tk := newEnv(Replication)
	var sum float64
	for i := 0; i < 3; i++ {
		dst := (tk.Core + 1) % 3
		mg, err := m.Request(tk, 0, dst)
		if err != nil {
			t.Fatal(err)
		}
		m.AtCheckpoint(0, 0)
		drive(b, m, mg, 0)
		if mg.FreezeDuration() <= 0 {
			t.Errorf("migration %d froze for %g s", i, mg.FreezeDuration())
		}
		sum += mg.FreezeDuration()
	}
	s := m.Stats()
	if s.Completed != 3 {
		t.Fatalf("completed = %d", s.Completed)
	}
	if s.FreezeTime != sum {
		t.Errorf("freeze time = %g, want the sum %g of the migrations' freezes", s.FreezeTime, sum)
	}
	if s.BytesMoved != 3*task.DefaultStateBytes {
		t.Errorf("bytes moved = %g", s.BytesMoved)
	}
}

func TestMechanismAndPhaseStrings(t *testing.T) {
	if Replication.String() != "task-replication" || Recreation.String() != "task-recreation" {
		t.Error("mechanism names wrong")
	}
	if Mechanism(5).String() != "Mechanism(5)" {
		t.Error("unknown mechanism name")
	}
	names := map[Phase]string{
		WaitCheckpoint: "wait-checkpoint",
		Transferring:   "transferring",
		Restoring:      "restoring",
		Done:           "done",
		Phase(9):       "Phase(9)",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("Phase %d name = %q, want %q", p, p.String(), want)
		}
	}
}

func TestPendingLookup(t *testing.T) {
	_, m, tk := newEnv(Replication)
	if _, ok := m.Pending(0); ok {
		t.Error("phantom pending")
	}
	mg, _ := m.Request(tk, 0, 1)
	got, ok := m.Pending(0)
	if !ok || got != mg {
		t.Error("Pending lookup failed")
	}
}

func TestTransitQueries(t *testing.T) {
	b, m, tk := newEnv(Recreation)
	if !math.IsInf(m.NextPhaseTransitionAt(), 1) {
		t.Fatal("phase transition scheduled before any request")
	}
	mg, err := m.Request(tk, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// WaitCheckpoint: still nothing in transit, no self-timed transition.
	if !math.IsInf(m.NextPhaseTransitionAt(), 1) {
		t.Errorf("wait-checkpoint: nextAt=%v", m.NextPhaseTransitionAt())
	}
	if _, err := m.AtCheckpoint(0, 1.5); err != nil {
		t.Fatal(err)
	}
	if mg.Phase != Transferring {
		t.Errorf("phase = %v after freeze", mg.Phase)
	}
	// Drive until the transfer finishes; recreation then enters
	// Restoring with a self-timed end the query must report.
	const h = 1e-3
	now := 1.5
	for i := 0; i < 100000 && mg.Phase == Transferring; i++ {
		b.Advance(h)
		now += h
		m.Advance(now)
	}
	if mg.Phase != Restoring {
		t.Fatalf("phase = %v after transfer", mg.Phase)
	}
	at := m.NextPhaseTransitionAt()
	if math.IsInf(at, 1) || at < now || at > now+2*DefaultRestoreOverheadS {
		t.Errorf("NextPhaseTransitionAt = %v, want within (%v, %v]", at, now, now+DefaultRestoreOverheadS)
	}
	m.Advance(at)
	if mg.Phase != Done {
		t.Errorf("phase = %v at restore end", mg.Phase)
	}
	if !math.IsInf(m.NextPhaseTransitionAt(), 1) {
		t.Error("phase transition still scheduled after completion")
	}
}
