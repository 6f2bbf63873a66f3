package bench

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to; SleepUntil oversleeps by a
// fixed slop, the way a VM's timer does.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Duration
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now < t {
		c.now = t + c.oversleep
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

const ms = time.Millisecond

func TestOpenLoopTimingRule(t *testing.T) {
	for _, c := range []struct {
		name                 string
		due, free, send, end time.Duration
		wantLat, wantLate    time.Duration
	}{
		{"on time", 10 * ms, 0, 10 * ms, 12 * ms, 2 * ms, 0},
		{"timer overslept", 10 * ms, 0, 10*ms + 500*time.Microsecond, 12 * ms, 1500 * time.Microsecond, 500 * time.Microsecond},
		{"waited for a busy connection", 10 * ms, 15 * ms, 15 * ms, 17 * ms, 7 * ms, 0},
		{"busy connection, then overslept", 10 * ms, 15 * ms, 16 * ms, 18 * ms, 7 * ms, ms},
	} {
		lat, late := openLoopTiming(c.due, c.free, c.send, c.end)
		if lat != c.wantLat || late != c.wantLate {
			t.Errorf("%s: lat %v late %v, want %v %v", c.name, lat, late, c.wantLat, c.wantLate)
		}
	}
}

// TestOpenLoopSubtractsOnlySlop drives the generator on a fake clock:
// an idle server is charged only its service time however late the
// timer fires, while a stall is charged to every request queued
// behind it.
func TestOpenLoopSubtractsOnlySlop(t *testing.T) {
	clk := &fakeClock{oversleep: 500 * time.Microsecond}
	ss := runOpenLoop(clk, 1, 5, 1000, func(int) bool {
		clk.advance(200 * time.Microsecond)
		return true
	})
	for i, s := range ss {
		wantLate := 500 * time.Microsecond
		if i == 0 {
			wantLate = 0 // due at the start: no timer to oversleep
		}
		if s.lat != 200*time.Microsecond || s.late != wantLate {
			t.Errorf("idle request %d: lat %v late %v, want 200µs %v", i, s.lat, s.late, wantLate)
		}
	}

	clk = &fakeClock{}
	ss = runOpenLoop(clk, 1, 5, 1000, func(i int) bool {
		if i == 0 {
			clk.advance(3500 * time.Microsecond) // the stall
		} else {
			clk.advance(200 * time.Microsecond)
		}
		return true
	})
	want := []time.Duration{3500, 2700, 1900, 1100, 300}
	for i, s := range ss {
		if s.lat != want[i]*time.Microsecond || s.late != 0 {
			t.Errorf("stalled request %d: lat %v late %v, want %vµs 0", i, s.lat, s.late, want[i])
		}
	}
}

func TestSummarizePhaseChargesFailuresTheWorstLatency(t *testing.T) {
	ss := make([]sample, 100)
	for i := range ss {
		ss[i] = sample{lat: ms, ok: true}
	}
	ss[0].lat = 9 * ms
	for i := 1; i <= 20; i++ {
		ss[i] = sample{lat: 0, ok: false}
	}
	st := summarizePhase(ss)
	if st.p90 != 9 {
		t.Errorf("p90 %v, want 9 ms", st.p90)
	}
}
