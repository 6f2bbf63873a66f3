package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// Observations landing exactly on, just under and just over each bound
// must land in the right bucket: bounds are inclusive upper bounds.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1}
	cases := []struct {
		name   string
		d      time.Duration
		bucket int
	}{
		{"zero", 0, 0},
		{"negative clamps to zero", -time.Second, 0},
		{"under first bound", 999 * time.Microsecond, 0},
		{"exactly first bound", time.Millisecond, 0},
		{"just over first bound", time.Millisecond + time.Nanosecond, 1},
		{"mid second bucket", 5 * time.Millisecond, 1},
		{"exactly second bound", 10 * time.Millisecond, 1},
		{"mid third bucket", 50 * time.Millisecond, 2},
		{"exactly last bound", 100 * time.Millisecond, 2},
		{"over last bound lands in +Inf", 101 * time.Millisecond, 3},
		{"far over last bound", time.Hour, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.NewHistogram("test_seconds", "t", bounds)
			h.Observe(tc.d)
			counts := h.snapshot()
			for i, c := range counts {
				want := uint64(0)
				if i == tc.bucket {
					want = 1
				}
				if c != want {
					t.Errorf("bucket %d count = %d, want %d (observation %v)", i, c, want, tc.d)
				}
			}
			if h.Count() != 1 {
				t.Errorf("Count = %d, want 1", h.Count())
			}
		})
	}
}

func TestHistogramSum(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "t", DefBuckets)
	h.Observe(1500 * time.Millisecond)
	h.Observe(500 * time.Millisecond)
	if got := h.Sum(); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("Sum = %v, want 2.0", got)
	}
}

// Concurrent observers and scrapers must be race-free (run with
// -race): Observe is atomic adds, rendering reads with atomic loads.
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "t", DefBuckets)
	c := r.NewCounter("test_total", "t")
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG+i) * time.Microsecond)
				c.Inc()
			}
		}(g)
	}
	// Scrape while the observers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sink discardWriter
			if err := r.WritePrometheus(&sink); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got, want := h.Count(), uint64(goroutines*perG); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	if got, want := c.Value(), uint64(goroutines*perG); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// Observe and Counter.Add sit on the cached-request hot path: they
// must not allocate. Race instrumentation allocates, so the assertion
// is skipped under -race.
func TestObserveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "t", DefBuckets)
	c := r.NewCounter("test_total", "t")
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(3 * time.Millisecond)
		c.Inc()
	})
	if allocs != 0 {
		t.Errorf("Observe+Inc allocates %.1f objects per call, want 0", allocs)
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.NewHistogram("h_seconds", "t", DefBuckets)
	r.NewCounter("c_total", "t")
	expectPanic("empty bounds", func() { r.NewHistogram("x_seconds", "t", nil) })
	expectPanic("unsorted bounds", func() { r.NewHistogram("y_seconds", "t", []float64{1, 1}) })
	expectPanic("kind conflict", func() { r.NewCounter("h_seconds", "t") })
	expectPanic("bucket conflict", func() { r.NewHistogram("h_seconds", "t", []float64{1, 2}) })
}
