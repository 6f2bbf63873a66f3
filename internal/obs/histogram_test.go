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
// -race): Observe is atomic adds, rendering and quantiles read with
// atomic loads.
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
	// Scrape and read quantiles while the observers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sink discardWriter
			if err := r.WritePrometheus(&sink); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			MergedQuantile([]*Histogram{h}, 0.95)
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

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// Quantiles interpolate within the bucket the rank falls in.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.1, 0.2, 0.4}
	h := r.NewHistogram("test_seconds", "t", bounds)
	if q := MergedQuantile([]*Histogram{h}, 0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
	// 10 observations in (0.1, 0.2]: the median rank is 5 of 10 in that
	// bucket → lower + (0.1 width)*(5/10) = 0.15.
	for i := 0; i < 10; i++ {
		h.Observe(150 * time.Millisecond)
	}
	if q := MergedQuantile([]*Histogram{h}, 0.5); math.Abs(q-0.15) > 1e-9 {
		t.Errorf("p50 = %v, want 0.15", q)
	}
	// Everything beyond the last bound clamps to it.
	h2 := r.NewHistogram("test2_seconds", "t", bounds)
	for i := 0; i < 4; i++ {
		h2.Observe(time.Second)
	}
	if q := MergedQuantile([]*Histogram{h2}, 0.99); q != 0.4 {
		t.Errorf("+Inf-bucket p99 = %v, want clamp to 0.4", q)
	}
}

func TestMergedQuantile(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.1, 0.2, 0.4}
	a := r.NewHistogram("m_seconds", "t", bounds, L("outcome", "hit"))
	b := r.NewHistogram("m_seconds", "t", bounds, L("outcome", "miss"))
	for i := 0; i < 5; i++ {
		a.Observe(50 * time.Millisecond) // first bucket
	}
	for i := 0; i < 5; i++ {
		b.Observe(300 * time.Millisecond) // third bucket
	}
	if got, want := MergedCount([]*Histogram{a, b}), uint64(10); got != want {
		t.Fatalf("MergedCount = %d, want %d", got, want)
	}
	// p95 rank 9.5 falls in the third bucket: 0.2 + 0.2*(4.5/5) = 0.38.
	if q := MergedQuantile([]*Histogram{a, b}, 0.95); math.Abs(q-0.38) > 1e-9 {
		t.Errorf("merged p95 = %v, want 0.38", q)
	}
	if q := MergedQuantile(nil, 0.5); q != 0 {
		t.Errorf("MergedQuantile(nil) = %v, want 0", q)
	}
}

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
