// Package loadgen is the open-loop load generator behind cmd/thermload:
// fixed-rate arrivals against a live thermservd, a declarative request
// mix with Zipf-skewed key repetition, and a schema-versioned report of
// what the service sustained (per-endpoint and per-stage latency
// quantiles, error/shed/quota rates, cache-outcome mix).
//
// The generator is deliberately open-loop: arrivals fire on a fixed
// schedule whether or not earlier requests have completed, so queueing
// delay shows up in the measured latency instead of being absorbed by
// client backpressure the way a closed loop (fixed worker count) hides
// it. The one concession is a bounded in-flight cap as a client-side
// safety valve; arrivals skipped at the cap are counted, never silently
// dropped.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermbal/internal/obs"
)

// MixEntry is one weighted request shape in the mix. The Zipf-drawn
// key index is added to DeltaBase, so the entry spans ZipfKeys distinct
// content addresses with skewed repetition — the skew is what exercises
// the cache and store tiers the way a real population of callers does.
type MixEntry struct {
	// Name labels the entry in reports; defaults to endpoint/scenario.
	Name string `json:"name,omitempty"`
	// Weight is the entry's relative share of arrivals (any positive
	// scale; weights are normalized).
	Weight float64 `json:"weight"`
	// Endpoint is "run" (sync POST /run) or "matrix" (sync POST
	// /matrix).
	Endpoint string `json:"endpoint"`
	Scenario string `json:"scenario"`
	// Policy names the policy for a run entry; Policies the sweep
	// columns for a matrix entry.
	Policy   string   `json:"policy,omitempty"`
	Policies []string `json:"policies,omitempty"`
	WarmupS  float64  `json:"warmup_s"`
	MeasureS float64  `json:"measure_s"`
	// DeltaBase is the smallest delta the entry requests; the key index
	// k in [0, ZipfKeys) yields delta = DeltaBase + k.
	DeltaBase int `json:"delta_base"`
}

func (e *MixEntry) label() string {
	if e.Name != "" {
		return e.Name
	}
	return e.Endpoint + "/" + e.Scenario
}

// Mix is the declarative request mix: weighted entries plus the Zipf
// key-repetition parameters shared by all of them.
type Mix struct {
	Entries []MixEntry `json:"entries"`
	// ZipfS is the Zipf skew exponent (> 1; larger = more repetition
	// concentrated on few keys). ZipfKeys is the distinct key-index
	// count per entry.
	ZipfS    float64 `json:"zipf_s"`
	ZipfKeys int     `json:"zipf_keys"`
}

// DefaultMix is the mix used when no -mix file is given: run-dominated
// traffic over the cheapest scenario with a small sweep component, the
// shape the OPERATIONS.md capacity numbers are quoted against.
func DefaultMix() Mix {
	return Mix{
		ZipfS:    1.2,
		ZipfKeys: 8,
		Entries: []MixEntry{
			{Name: "run-tb", Weight: 8, Endpoint: "run", Scenario: "sdr-radio", Policy: "tb", WarmupS: 0.3, MeasureS: 0.7, DeltaBase: 1},
			{Name: "run-eb", Weight: 1.5, Endpoint: "run", Scenario: "sdr-radio", Policy: "eb", WarmupS: 0.3, MeasureS: 0.7, DeltaBase: 1},
			{Name: "sweep", Weight: 0.5, Endpoint: "matrix", Scenario: "sdr-radio", Policies: []string{"eb", "tb"}, WarmupS: 0.3, MeasureS: 0.7, DeltaBase: 1},
		},
	}
}

// Validate rejects a mix the generator cannot run.
func (m *Mix) Validate() error {
	if len(m.Entries) == 0 {
		return fmt.Errorf("mix has no entries")
	}
	if m.ZipfS <= 1 {
		return fmt.Errorf("zipf_s = %g, want > 1", m.ZipfS)
	}
	if m.ZipfKeys < 1 {
		return fmt.Errorf("zipf_keys = %d, want >= 1", m.ZipfKeys)
	}
	total := 0.0
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.Weight <= 0 {
			return fmt.Errorf("entry %s: weight %g, want > 0", e.label(), e.Weight)
		}
		switch e.Endpoint {
		case "run":
			if e.Policy == "" {
				return fmt.Errorf("entry %s: run entry needs a policy", e.label())
			}
		case "matrix":
			if len(e.Policies) == 0 {
				return fmt.Errorf("entry %s: matrix entry needs policies", e.label())
			}
		default:
			return fmt.Errorf("entry %s: endpoint %q, want run or matrix", e.label(), e.Endpoint)
		}
		if e.Scenario == "" {
			return fmt.Errorf("entry %s: scenario missing", e.label())
		}
		if e.WarmupS < 0 || e.MeasureS <= 0 {
			return fmt.Errorf("entry %s: warmup_s %g / measure_s %g", e.label(), e.WarmupS, e.MeasureS)
		}
		if e.DeltaBase < 1 {
			return fmt.Errorf("entry %s: delta_base %d, want >= 1", e.label(), e.DeltaBase)
		}
		total += e.Weight
	}
	if total <= 0 {
		return fmt.Errorf("mix weights sum to %g", total)
	}
	return nil
}

// body renders the entry's request body for key index k.
func (e *MixEntry) body(k int) string {
	delta := e.DeltaBase + k
	if e.Endpoint == "matrix" {
		quoted := make([]string, len(e.Policies))
		for i, p := range e.Policies {
			quoted[i] = fmt.Sprintf("%q", p)
		}
		return fmt.Sprintf(`{"scenarios":[%q],"policies":[%s],"delta":%d,"warmup_s":%g,"measure_s":%g}`,
			e.Scenario, strings.Join(quoted, ","), delta, e.WarmupS, e.MeasureS)
	}
	return fmt.Sprintf(`{"scenario":%q,"policy":%q,"delta":%d,"warmup_s":%g,"measure_s":%g}`,
		e.Scenario, e.Policy, delta, e.WarmupS, e.MeasureS)
}

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the target server ("http://host:port", no trailing
	// slash).
	BaseURL string
	// RPS is the open-loop arrival rate.
	RPS float64
	// Warmup arrivals are sent but excluded from the report; Duration
	// is the measurement window after it.
	Warmup   time.Duration
	Duration time.Duration
	Mix      Mix
	// Seed makes the arrival schedule's draws reproducible.
	Seed int64
	// MaxInflight caps concurrent outstanding requests (client-side
	// safety valve; 0 means 4× RPS, minimum 64). Arrivals skipped at
	// the cap are counted in Report.Dropped.
	MaxInflight int
	// Tenant, when set, stamps every request's X-Tenant header.
	Tenant string
	// Client overrides the HTTP client (tests); nil uses a dedicated
	// client with sane timeouts.
	Client *http.Client
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Validate reports the first setting Run cannot honour: an arrival
// rate that is not a number, not positive, or so high (infinite
// included) that the arrival interval rounds to zero; a non-positive
// measurement window; an invalid mix.
func (c *Config) Validate() error {
	if !(c.RPS > 0) || float64(time.Second)/c.RPS < 1 {
		return fmt.Errorf("rps = %g, want a rate in (0, 1e9]", c.RPS)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("duration = %s, want > 0", c.Duration)
	}
	if err := c.Mix.Validate(); err != nil {
		return fmt.Errorf("mix: %w", err)
	}
	return nil
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// sample is one completed request's measurement.
type sample struct {
	entry    string
	endpoint string
	status   int
	outcome  string // X-Cache
	d        time.Duration
	stages   map[string]int64 // X-Timing, µs
	err      error
	measured bool
}

// Run drives one open-loop load run to completion and returns its
// report. ctx cancellation stops the arrival schedule early; whatever
// was measured up to that point is still reported.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}
	maxInflight := cfg.MaxInflight
	if maxInflight <= 0 {
		maxInflight = int(4 * cfg.RPS)
		if maxInflight < 64 {
			maxInflight = 64
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.Mix.ZipfS, 1, uint64(cfg.Mix.ZipfKeys-1))
	cum := make([]float64, len(cfg.Mix.Entries))
	total := 0.0
	for i := range cfg.Mix.Entries {
		total += cfg.Mix.Entries[i].Weight
		cum[i] = total
	}
	pick := func() *MixEntry {
		x := rng.Float64() * total
		for i := range cum {
			if x < cum[i] {
				return &cfg.Mix.Entries[i]
			}
		}
		return &cfg.Mix.Entries[len(cum)-1]
	}

	var (
		mu       sync.Mutex
		samples  []sample
		wg       sync.WaitGroup
		dropped  atomic.Int64
		inflight = make(chan struct{}, maxInflight)
	)
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	interval := time.Duration(float64(time.Second) / cfg.RPS)
	start := time.Now()
	measureStart := start.Add(cfg.Warmup)
	end := measureStart.Add(cfg.Duration)
	cfg.logf("load: %g rps open-loop against %s (%s warmup + %s measured, %d-key zipf s=%g)",
		cfg.RPS, cfg.BaseURL, cfg.Warmup, cfg.Duration, cfg.Mix.ZipfKeys, cfg.Mix.ZipfS)

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	sent := 0
arrivals:
	for {
		var now time.Time
		select {
		case <-ctx.Done():
			break arrivals
		case now = <-ticker.C:
		}
		if now.After(end) {
			break
		}
		// Draws happen on the schedule goroutine (the rng is not
		// concurrency-safe); the request itself is detached so a slow
		// response never delays the next arrival.
		entry := pick()
		k := int(zipf.Uint64())
		measured := !now.Before(measureStart)
		select {
		case inflight <- struct{}{}:
		default:
			dropped.Add(1)
			continue
		}
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inflight }()
			record(oneRequest(client, cfg.BaseURL, cfg.Tenant, entry, k, measured))
		}()
	}
	wg.Wait()

	if n := dropped.Load(); n > 0 {
		cfg.logf("load: %d arrivals skipped at the %d-request in-flight cap (client-side bound, not a server shed)", n, maxInflight)
	}
	rep := buildReport(cfg, samples, sent, dropped.Load())
	return rep, nil
}

// oneRequest executes a single arrival and measures it.
func oneRequest(client *http.Client, base, tenant string, e *MixEntry, k int, measured bool) sample {
	s := sample{entry: e.label(), endpoint: e.Endpoint, measured: measured}
	req, err := http.NewRequest(http.MethodPost, base+"/"+e.Endpoint, strings.NewReader(e.body(k)))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		s.d = time.Since(t0)
		s.err = err
		return s
	}
	_, copyErr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.d = time.Since(t0)
	if copyErr != nil {
		s.err = copyErr
		return s
	}
	s.status = resp.StatusCode
	s.outcome = resp.Header.Get("X-Cache")
	if v := resp.Header.Get("X-Timing"); v != "" {
		if pairs, err := obs.ParseHeaderValue(v); err == nil {
			s.stages = pairs
		}
	}
	return s
}

// quantile returns the exact order statistic for q in (0,1] from a
// sorted sample set.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func quantilesOf(ds []time.Duration) Quantiles {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return Quantiles{
		Count: len(ds),
		P50Ms: ms(quantile(ds, 0.50)),
		P95Ms: ms(quantile(ds, 0.95)),
		P99Ms: ms(quantile(ds, 0.99)),
	}
}
