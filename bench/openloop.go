package bench

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	// Now is the time since an arbitrary fixed origin.
	Now() time.Duration
	// SleepUntil returns at or after t.
	SleepUntil(t time.Duration)
}

type realClock struct{ origin time.Time }

func newRealClock() realClock { return realClock{origin: time.Now()} }

func (c realClock) Now() time.Duration { return time.Since(c.origin) }

func (c realClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// sample is one request's timing.
type sample struct {
	// lat is the latency charged to the system: from when the request
	// was due to its last response byte, minus generator slop.
	lat time.Duration
	// late is the generator's own timer slop.
	late time.Duration
	ok   bool
}

// openLoopTiming applies the open-loop latency rule. A request is
// charged from its due time, so a stalled server is charged for every
// later request that had to wait for a connection. The one thing not
// charged is the generator oversleeping its timer: the gap between
// when the request could have been sent — the later of its due time
// and its connection becoming free — and when it was sent.
func openLoopTiming(due, free, send, end time.Duration) (lat, late time.Duration) {
	late = max(send-max(due, free), 0)
	return end - due - late, late
}

// runOpenLoop issues n requests due at rate per second from now, over
// conns connections (one worker each), calling do(i) for request i.
func runOpenLoop(clk clock, conns, n int, rate float64, do func(i int) bool) []sample {
	out := make([]sample, n)
	start := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start + time.Duration(float64(i)*float64(time.Second)/rate)
				clk.SleepUntil(due)
				send := clk.Now()
				ok := do(i)
				end := clk.Now()
				lat, late := openLoopTiming(due, free, send, end)
				out[i] = sample{lat: lat, late: late, ok: ok}
				free = end
			}
		}()
	}
	wg.Wait()
	return out
}

// phaseStats summarizes an open-loop phase: latency quantiles in ms
// over all requests. A failed request counts as missing every latency
// limit, so it is charged the phase's worst observed latency.
type phaseStats struct {
	n             int
	p50, p90, p99 float64
}

func summarizePhase(ss []sample) phaseStats {
	st := phaseStats{n: len(ss)}
	var worst time.Duration
	for _, s := range ss {
		worst = max(worst, s.lat)
	}
	lats := make([]float64, len(ss))
	for i, s := range ss {
		d := s.lat
		if !s.ok {
			d = worst
		}
		lats[i] = float64(d) / 1e6
	}
	st.p50 = quantile(lats, 0.5)
	st.p90 = quantile(lats, 0.9)
	st.p99 = quantile(lats, 0.99)
	return st
}

// lateUs returns each sample's generator slop in µs.
func lateUs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.late) / 1e3
	}
	return out
}
