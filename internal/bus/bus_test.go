package bus

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// newTest returns a bus with round numbers: 1000 B/s, 10 ms overhead.
func newTest() *Bus {
	return &Bus{bandwidth: 1000, overheadS: 0.01}
}

func TestStartRejectsBadSize(t *testing.T) {
	b := newTest()
	if _, err := b.Start("x", 0); !errors.Is(err, ErrBadSize) {
		t.Errorf("size 0 err = %v, want ErrBadSize", err)
	}
	if _, err := b.Start("x", -5); !errors.Is(err, ErrBadSize) {
		t.Errorf("negative size err = %v, want ErrBadSize", err)
	}
}

func TestSingleTransferLatency(t *testing.T) {
	b := newTest()
	tr, err := b.Start("solo", 500)
	if err != nil {
		t.Fatal(err)
	}
	// latency = overhead + size/bw = 0.01 + 0.5 = 0.51 s.
	b.Advance(0.50)
	if tr.Done() {
		t.Fatal("transfer finished early")
	}
	b.Advance(0.02)
	if !tr.Done() {
		t.Fatalf("transfer not done after full latency; remaining %g", tr.remaining)
	}
	if b.Active() != 0 {
		t.Errorf("Active = %d after completion", b.Active())
	}
}

func TestLatencyEstimateMatchesSimulation(t *testing.T) {
	b := newTest()
	est := b.LatencyEstimate(500, 1)
	tr, _ := b.Start("solo", 500)
	var elapsed float64
	for !tr.Done() {
		b.Advance(0.001)
		elapsed += 0.001
	}
	if math.Abs(elapsed-est) > 0.005 {
		t.Errorf("simulated %g vs estimate %g", elapsed, est)
	}
}

func TestFairShareContention(t *testing.T) {
	// Two equal transfers must finish together and take ~twice as long
	// as one alone (plus overhead effects).
	b := newTest()
	t1, _ := b.Start("a", 500)
	t2, _ := b.Start("b", 500)
	var done1, done2 float64
	for el := 0.0; !(t1.Done() && t2.Done()) && el < 10; el += 0.001 {
		b.Advance(0.001)
		if t1.Done() && done1 == 0 {
			done1 = el
		}
		if t2.Done() && done2 == 0 {
			done2 = el
		}
	}
	if !t1.Done() || !t2.Done() {
		t.Fatal("transfers never completed")
	}
	if math.Abs(done1-done2) > 0.002 {
		t.Errorf("equal transfers finished at %g and %g, want together", done1, done2)
	}
	// Total work = 2*(500 + 10) bytes at 1000 B/s ≈ 1.02 s.
	if done1 < 0.95 || done1 > 1.1 {
		t.Errorf("contended completion at %g s, want ≈1.02", done1)
	}
}

func TestShorterTransferFinishesFirst(t *testing.T) {
	b := newTest()
	small, _ := b.Start("small", 100)
	big, _ := b.Start("big", 900)
	for i := 0; i < 10000 && !big.Done(); i++ {
		b.Advance(0.001)
		if big.Done() && !small.Done() {
			t.Fatal("big finished before small")
		}
	}
	if !small.Done() || !big.Done() {
		t.Fatal("transfers stuck")
	}
}

func TestAdvanceAcrossCompletionBoundary(t *testing.T) {
	// One giant Advance must process completions mid-interval and give
	// remaining bandwidth to survivors.
	b := newTest()
	small, _ := b.Start("small", 100)
	big, _ := b.Start("big", 900)
	b.Advance(5)
	if !small.Done() || !big.Done() {
		t.Fatal("transfers not finished after long advance")
	}
	// Work: both run at 500 B/s until small (110 incl. overhead) done at
	// t=0.22; big then has 910-110=800 left at 1000 B/s: total 1.02 s.
	if got := b.BusySeconds(); math.Abs(got-1.02) > 0.05 {
		t.Errorf("busy seconds = %g, want ≈1.02", got)
	}
}

func TestProgressAndAccessors(t *testing.T) {
	b := newTest()
	tr, _ := b.Start("x", 990)
	total := 990 + b.overheadS*b.bandwidth
	if tr.remaining != total {
		t.Errorf("initial remaining = %g of %g", tr.remaining, total)
	}
	if tr.Label() != "x" {
		t.Errorf("label = %q", tr.Label())
	}
	if tr.ID() != 0 {
		t.Errorf("id = %d", tr.ID())
	}
	b.Advance(0.5)
	if r := tr.remaining; r <= 0 || r >= total {
		t.Errorf("mid remaining = %g of %g", r, total)
	}
	b.Advance(1)
	if tr.remaining != 0 {
		t.Errorf("final remaining = %g", tr.remaining)
	}
	if !tr.Done() || b.Active() != 0 {
		t.Errorf("finished transfer: done %v, %d active", tr.Done(), b.Active())
	}
}

func TestDefaults(t *testing.T) {
	b := New()
	if b.bandwidth != DefaultBandwidth || b.overheadS != DefaultOverhead {
		t.Errorf("bus = %g B/s, %g s overhead", b.bandwidth, b.overheadS)
	}
	// One second of data plus the fixed overhead.
	if got, want := b.LatencyEstimate(DefaultBandwidth, 1), 1+DefaultOverhead; got != want {
		t.Errorf("latency %g, want %g", got, want)
	}
}

func TestZeroAndNegativeAdvanceNoOp(t *testing.T) {
	b := newTest()
	tr, _ := b.Start("x", 100)
	before := tr.remaining
	b.Advance(0)
	b.Advance(-1)
	if tr.remaining != before {
		t.Error("Advance(<=0) moved data")
	}
}

// Property: regardless of how an interval is subdivided, the same total
// amount of data moves (work conservation).
func TestWorkConservationProperty(t *testing.T) {
	f := func(chunks []uint8) bool {
		b1 := newTest()
		b2 := newTest()
		tr1, _ := b1.Start("a", 700)
		tr2, _ := b2.Start("a", 700)
		var total float64
		for _, c := range chunks {
			d := float64(c) / 256 * 0.05
			b1.Advance(d)
			total += d
		}
		b2.Advance(total)
		return math.Abs(tr1.remaining-tr2.remaining) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: contention monotonicity — more competitors never shortens
// the estimated latency.
func TestLatencyEstimateMonotoneProperty(t *testing.T) {
	b := newTest()
	f := func(size uint16, n uint8) bool {
		s := float64(size) + 1
		k := int(n%8) + 1
		return b.LatencyEstimate(s, k+1) >= b.LatencyEstimate(s, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// AdvanceTicks over a SafeTicks span must be bit-for-bit identical to
// the same number of sequential Advance(tick) calls — the contract the
// simulation fast path depends on.
func TestAdvanceTicksMatchesSequentialAdvance(t *testing.T) {
	const tick = 100e-6
	mk := func() (*Bus, *Transfer, *Transfer) {
		b := New()
		t1, err := b.Start("a", 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := b.Start("b", 48<<10)
		if err != nil {
			t.Fatal(err)
		}
		return b, t1, t2
	}
	seq, s1, s2 := mk()
	fast, f1, f2 := mk()
	safe := fast.SafeTicks(tick)
	if safe <= 0 {
		t.Fatalf("SafeTicks = %d at transfer start", safe)
	}
	for i := int64(0); i < safe; i++ {
		seq.Advance(tick)
	}
	fast.AdvanceTicks(tick, safe)
	if s1.Done() || s2.Done() || f1.Done() || f2.Done() {
		t.Fatal("a transfer completed within the safe window")
	}
	if s1.remaining != f1.remaining || s2.remaining != f2.remaining {
		t.Errorf("remaining diverged: %x/%x vs %x/%x",
			s1.remaining, s2.remaining, f1.remaining, f2.remaining)
	}
	if seq.BusySeconds() != fast.BusySeconds() {
		t.Errorf("accounting diverged: busy %x vs %x", seq.BusySeconds(), fast.BusySeconds())
	}
	// Driving both to completion tick-by-tick must finish on the same tick.
	ticksSeq, ticksFast := 0, 0
	for !s1.Done() || !s2.Done() {
		seq.Advance(tick)
		ticksSeq++
	}
	for !f1.Done() || !f2.Done() {
		fast.Advance(tick)
		ticksFast++
	}
	if ticksSeq != ticksFast {
		t.Errorf("completion shifted: %d vs %d ticks after the safe window", ticksSeq, ticksFast)
	}
}

func TestSafeTicksIdleAndEdge(t *testing.T) {
	b := New()
	if b.SafeTicks(100e-6) < 1<<30 {
		t.Error("idle bus reported a near horizon")
	}
	b.AdvanceTicks(100e-6, 1000) // must be a no-op when idle
	if b.BusySeconds() != 0 {
		t.Error("AdvanceTicks accrued busy time on an idle bus")
	}
	tr, err := b.Start("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	// A nearly-finished transfer must force plain stepping (0 safe ticks
	// once remaining is within one tick of completion).
	for b.SafeTicks(100e-6) > 0 {
		b.AdvanceTicks(100e-6, 1)
	}
	if tr.Done() {
		t.Fatal("transfer completed during safe replay")
	}
	b.Advance(100e-6 * 3)
	if !tr.Done() {
		t.Error("transfer did not complete after the safe window")
	}
}
