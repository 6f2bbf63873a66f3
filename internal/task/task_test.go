package task

import (
	"math"
	"math/rand"
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

// addLoop is AddN's reference: n sequential additions.
func addLoop(x, w float64, n int64) float64 {
	for ; n > 0; n-- {
		x += w
	}
	return x
}

// drawStart draws an accumulator value: whole, fractional, zero,
// subnormal, just below a power of two, a power of two, or whole just
// below 2^53 or 2^54, where whole sums start to round.
func drawStart(r *rand.Rand) float64 {
	switch r.Intn(7) {
	case 0:
		return float64(r.Int63n(1 << 40))
	case 1:
		return r.Float64() * math.Ldexp(1, r.Intn(60)-8)
	case 2:
		return 0
	case 3:
		return math.Float64frombits(uint64(r.Int63n(1 << 52)))
	case 4:
		return math.Nextafter(math.Ldexp(1, r.Intn(60)), 0)
	case 5:
		return math.Ldexp(1, r.Intn(1134)-1074)
	default:
		return float64(int64(1)<<(53+r.Intn(2)) - r.Int63n(1<<28))
	}
}

// drawBudget draws a per-tick budget: a default ladder level's, a
// fractional one, a whole one, a power of two, or a tiny value.
func drawBudget(r *rand.Rand) float64 {
	switch r.Intn(5) {
	case 0:
		return []float64{13300, 26600, 53300}[r.Intn(3)]
	case 1:
		return (1 + r.Float64()) * math.Ldexp(1, r.Intn(20))
	case 2:
		return float64(r.Int63n(1<<20) + 1)
	case 3:
		return math.Ldexp(1, r.Intn(40)-20)
	default:
		return math.Ldexp(1+r.Float64(), -r.Intn(1070))
	}
}

// AddN must equal the sequential additions bit for bit, whichever path
// it takes.
func TestAddNMatchesSequentialAdds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		x, w, n := drawStart(r), drawBudget(r), r.Int63n(3000)
		if got, want := AddN(x, w, n), addLoop(x, w, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AddN(%x, %x, %d) = %x, want %x", x, w, n, got, want)
		}
	}
}

// ExecuteN must report completion exactly when one of n sequential
// Execute calls would, leave the task untouched when it does, and
// otherwise leave it bit for bit where the calls would.
func TestExecuteNMatchesSequentialExecute(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	fired := 0
	for i := 0; i < 20000; i++ {
		tk := MustNew("p", 0.5)
		tk.InFlight = true
		tk.Progress = drawStart(r)
		budget, n := drawBudget(r), r.Int63n(3000)
		// Put the completion near the n-th allocation.
		tk.CyclesPerFrame = tk.Progress + budget*float64(n+r.Int63n(5)-2) + drawStart(r)*float64(r.Intn(2))
		ref, got := *tk, *tk
		var refDone bool
		for j := int64(0); j < n && !refDone; j++ {
			_, refDone = ref.Execute(budget)
		}
		if done := got.ExecuteN(budget, n); done != refDone {
			t.Fatalf("case %d: ExecuteN(%x, %d) from progress %x of %x = %v, sequential Execute %v",
				i, budget, n, tk.Progress, tk.CyclesPerFrame, done, refDone)
		}
		want := ref
		if refDone {
			fired++
			want = *tk
		}
		if got != want {
			t.Fatalf("case %d: ExecuteN(%x, %d) left %+v, want %+v", i, budget, n, got, want)
		}
	}
	if fired == 0 || fired == 20000 {
		t.Errorf("completion fired in %d of 20000 cases; the draw exercised one side only", fired)
	}
}

// Whole budgets from a start with no bits below the sum's ulp take the
// one-product path: 2^32 sequential additions would not finish here.
func TestAddNWholeBudgetsTakeOneProduct(t *testing.T) {
	const n = 1 << 32
	for _, x := range []float64{0, 0.5, 12345.25} {
		for _, w := range []float64{13300, 26600, 53300} {
			if got, want := AddN(x, w, n), x+w*n; got != want {
				t.Errorf("AddN(%g, %g, 2^32) = %x, want %x", x, w, got, want)
			}
		}
	}
}
