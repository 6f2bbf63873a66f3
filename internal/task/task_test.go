package task

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("", 0.5); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New("x", 0); err == nil {
		t.Error("zero FSE accepted")
	}
	if _, err := New("x", 1.2); err == nil {
		t.Error("FSE > 1 accepted")
	}
	tk, err := New("x", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if tk.Core != -1 {
		t.Errorf("initial core = %d, want -1 (unplaced)", tk.Core)
	}
	if tk.StateBytes != DefaultStateBytes {
		t.Errorf("state bytes = %g", tk.StateBytes)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew("bad", -1)
}

func TestBindWork(t *testing.T) {
	tk := MustNew("BPF2", 0.304)
	tk.BindWork(533e6, 0.02)
	want := 0.304 * 533e6 * 0.02
	if math.Abs(tk.CyclesPerFrame-want) > 1 {
		t.Errorf("CyclesPerFrame = %g, want %g", tk.CyclesPerFrame, want)
	}
}

func TestFrameLifecycle(t *testing.T) {
	tk := MustNew("x", 0.5)
	tk.BindWork(100, 1) // 50 cycles per frame
	if tk.Remaining() != 0 {
		t.Error("Remaining != 0 before frame start")
	}
	if err := tk.StartFrame(); err != nil {
		t.Fatal(err)
	}
	if err := tk.StartFrame(); err == nil {
		t.Error("double StartFrame accepted")
	}
	c, done := tk.Execute(30)
	if c != 30 || done {
		t.Fatalf("Execute(30) = (%g,%v)", c, done)
	}
	if tk.Remaining() != 20 {
		t.Errorf("Remaining = %g, want 20", tk.Remaining())
	}
	c, done = tk.Execute(100)
	if c != 20 || !done {
		t.Fatalf("Execute(100) = (%g,%v), want (20,true)", c, done)
	}
	if tk.FramesCompleted != 1 {
		t.Errorf("FramesCompleted = %d", tk.FramesCompleted)
	}
	if tk.BusyCycles != 50 {
		t.Errorf("BusyCycles = %g", tk.BusyCycles)
	}
	if tk.InFlight {
		t.Error("still in flight after completion")
	}
}

func TestExecuteWithoutFrame(t *testing.T) {
	tk := MustNew("x", 0.5)
	tk.BindWork(100, 1)
	if c, done := tk.Execute(10); c != 0 || done {
		t.Error("Execute without frame consumed cycles")
	}
	tk.StartFrame()
	if c, _ := tk.Execute(-5); c != 0 {
		t.Error("negative cycles consumed")
	}
}

func TestFreezeProtocol(t *testing.T) {
	tk := MustNew("x", 0.5)
	tk.BindWork(100, 1)
	tk.StartFrame()
	if err := tk.Freeze(); err == nil {
		t.Error("mid-frame freeze accepted (checkpoint violation)")
	}
	tk.Execute(1000)
	if err := tk.Freeze(); err != nil {
		t.Fatalf("checkpoint freeze rejected: %v", err)
	}
	if tk.Runnable() {
		t.Error("frozen task runnable")
	}
	if err := tk.StartFrame(); err == nil {
		t.Error("frozen task started a frame")
	}
	tk.Unfreeze(2)
	if !tk.Runnable() || tk.Core != 2 {
		t.Errorf("after unfreeze: state %v, core %d", tk.State, tk.Core)
	}
	if tk.Migrations != 1 {
		t.Errorf("Migrations = %d", tk.Migrations)
	}
}

func TestMigrationBytes(t *testing.T) {
	tk := MustNew("x", 0.5)
	if got := tk.MigrationBytes(false); got != DefaultStateBytes {
		t.Errorf("replication bytes = %g", got)
	}
	if got := tk.MigrationBytes(true); got != DefaultStateBytes+DefaultCodeBytes {
		t.Errorf("recreation bytes = %g", got)
	}
}

func TestTotalFSEAndOnCore(t *testing.T) {
	a := MustNew("a", 0.3)
	b := MustNew("b", 0.2)
	c := MustNew("c", 0.1)
	a.Core, b.Core, c.Core = 0, 0, 1
	all := []*Task{a, b, c}
	if got := TotalFSE(all); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("TotalFSE = %g", got)
	}
	on0 := OnCore(all, 0)
	if len(on0) != 2 || on0[0] != a || on0[1] != b {
		t.Errorf("OnCore(0) = %v", on0)
	}
	if len(OnCore(all, 5)) != 0 {
		t.Error("OnCore(5) found tasks")
	}
}

func TestStateString(t *testing.T) {
	if Ready.String() != "ready" || Frozen.String() != "frozen" {
		t.Error("state names wrong")
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state name wrong")
	}
}

// Property: no matter how execution is chunked, total consumed cycles
// per frame equal CyclesPerFrame and completion happens exactly once.
func TestExecuteChunkingProperty(t *testing.T) {
	f := func(chunks []uint16) bool {
		tk := MustNew("p", 0.5)
		tk.BindWork(1e4, 1) // 5000 cycles/frame
		if tk.StartFrame() != nil {
			return false
		}
		var total float64
		completions := 0
		for _, ch := range chunks {
			c, done := tk.Execute(float64(ch))
			total += c
			if done {
				completions++
			}
			if completions > 1 {
				return false
			}
		}
		// Drain to completion.
		for tk.InFlight {
			c, done := tk.Execute(1000)
			total += c
			if done {
				completions++
			}
		}
		return completions == 1 && math.Abs(total-5000) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
