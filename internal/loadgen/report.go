package loadgen

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// SchemaVersion versions the LOAD_<date>.json document. Bump it when a
// field changes meaning; DecodeReport — and with it thermload's -self
// check — refuses documents of any other version.
const SchemaVersion = 1

// Quantiles is an exact latency summary (order statistics over the
// measured samples — unlike quantiles estimated from the server's
// /metrics histograms, these are not bucket-interpolated).
type Quantiles struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// EndpointReport is one endpoint's measured behavior.
type EndpointReport struct {
	Count int `json:"count"`
	// Shed counts 503s (cost budget or queue full), Quota 429s; both
	// are deliberate refusals, reported apart from Errors (transport
	// failures and unexpected statuses).
	Shed    int       `json:"shed"`
	Quota   int       `json:"quota"`
	Errors  int       `json:"errors"`
	Latency Quantiles `json:"latency"`
}

// Report is the LOAD_<date>.json document: the configured load, what
// was actually achieved, and the measured latency surfaces.
type Report struct {
	SchemaVersion int     `json:"load_schema_version"`
	Date          string  `json:"date"`
	TargetRPS     float64 `json:"target_rps"`
	// AchievedRPS is measured arrivals over the measurement window —
	// under saturation it can fall below TargetRPS when the in-flight
	// cap skips arrivals.
	AchievedRPS float64 `json:"achieved_rps"`
	WarmupS     float64 `json:"warmup_s"`
	MeasureS    float64 `json:"measure_s"`
	Mix         Mix     `json:"mix"`
	// Sent counts every dispatched request (warmup included); Measured
	// only those inside the measurement window; Dropped the arrivals
	// skipped at the client-side in-flight cap.
	Sent     int   `json:"sent"`
	Measured int   `json:"measured"`
	Dropped  int64 `json:"dropped"`
	// Endpoints and Entries split latency by endpoint and by mix entry;
	// Stages is server-reported per-stage time from X-Timing, so a slow
	// p99 can be attributed to queueing vs execution from the report
	// alone.
	Endpoints map[string]*EndpointReport `json:"endpoints"`
	Entries   map[string]*Quantiles      `json:"entries"`
	Stages    map[string]*Quantiles      `json:"stages"`
	// Outcomes counts X-Cache values over measured 200s — the
	// cache-tier mix the Zipf skew produced.
	Outcomes map[string]int `json:"outcomes"`
	// Status counts every measured response by HTTP status.
	Status map[string]int `json:"status"`
}

// buildReport aggregates the measured samples.
func buildReport(cfg Config, samples []sample, sent int, dropped int64) *Report {
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Date:          time.Now().UTC().Format("2006-01-02"),
		TargetRPS:     cfg.RPS,
		WarmupS:       cfg.Warmup.Seconds(),
		MeasureS:      cfg.Duration.Seconds(),
		Mix:           cfg.Mix,
		Sent:          sent,
		Dropped:       dropped,
		Endpoints:     map[string]*EndpointReport{},
		Entries:       map[string]*Quantiles{},
		Stages:        map[string]*Quantiles{},
		Outcomes:      map[string]int{},
		Status:        map[string]int{},
	}
	epLat := map[string][]time.Duration{}
	entryLat := map[string][]time.Duration{}
	stageLat := map[string][]time.Duration{}
	for _, s := range samples {
		if !s.measured {
			continue
		}
		rep.Measured++
		ep := rep.Endpoints[s.endpoint]
		if ep == nil {
			ep = &EndpointReport{}
			rep.Endpoints[s.endpoint] = ep
		}
		ep.Count++
		switch {
		case s.err != nil:
			ep.Errors++
			rep.Status["transport_error"]++
			continue
		case s.status == 503:
			ep.Shed++
		case s.status == 429:
			ep.Quota++
		case s.status != 200:
			ep.Errors++
		}
		rep.Status[fmt.Sprintf("%d", s.status)]++
		if s.status != 200 {
			continue
		}
		epLat[s.endpoint] = append(epLat[s.endpoint], s.d)
		entryLat[s.entry] = append(entryLat[s.entry], s.d)
		if s.outcome != "" {
			rep.Outcomes[s.outcome]++
		}
		for stage, us := range s.stages {
			if stage == "total" || us == 0 {
				continue
			}
			stageLat[stage] = append(stageLat[stage], time.Duration(us)*time.Microsecond)
		}
	}
	if rep.MeasureS > 0 {
		rep.AchievedRPS = float64(rep.Measured) / rep.MeasureS
	}
	for epName, ds := range epLat {
		q := quantilesOf(ds)
		rep.Endpoints[epName].Latency = q
	}
	for name, ds := range entryLat {
		q := quantilesOf(ds)
		rep.Entries[name] = &q
	}
	for name, ds := range stageLat {
		q := quantilesOf(ds)
		rep.Stages[name] = &q
	}
	return rep
}

// Encode renders the report as the canonical indented JSON document.
func (r *Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeReport parses a LOAD_<date>.json document, rejecting unknown
// schema versions.
func DecodeReport(b []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("load_schema_version %d, this tool understands %d", r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// Filename is the dated filename the report is committed under as a
// record, LOAD_<date>.json next to the BENCH_<date>.json series.
func (r *Report) Filename() string {
	return "LOAD_" + r.Date + ".json"
}

// Table renders the human-readable summary.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "open-loop load: target %g rps, achieved %.1f rps over %gs (warmup %gs)\n",
		r.TargetRPS, r.AchievedRPS, r.MeasureS, r.WarmupS)
	fmt.Fprintf(&sb, "requests: %d sent, %d measured, %d dropped at the in-flight cap\n", r.Sent, r.Measured, r.Dropped)

	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "endpoint\tcount\tp50 ms\tp95 ms\tp99 ms\tshed\tquota\terrors")
	for _, name := range sortedKeys(r.Endpoints) {
		ep := r.Endpoints[name]
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.2f\t%d\t%d\t%d\n",
			name, ep.Count, ep.Latency.P50Ms, ep.Latency.P95Ms, ep.Latency.P99Ms, ep.Shed, ep.Quota, ep.Errors)
	}
	w.Flush()

	w = tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "stage\tobs\tp50 ms\tp95 ms\tp99 ms")
	for _, name := range sortedKeys(r.Stages) {
		q := r.Stages[name]
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.3f\t%.3f\n", name, q.Count, q.P50Ms, q.P95Ms, q.P99Ms)
	}
	w.Flush()

	if len(r.Outcomes) > 0 {
		parts := make([]string, 0, len(r.Outcomes))
		for _, name := range sortedKeys(r.Outcomes) {
			parts = append(parts, fmt.Sprintf("%s %d", name, r.Outcomes[name]))
		}
		fmt.Fprintf(&sb, "cache outcomes: %s\n", strings.Join(parts, ", "))
	}
	if len(r.Status) > 0 {
		parts := make([]string, 0, len(r.Status))
		for _, name := range sortedKeys(r.Status) {
			parts = append(parts, fmt.Sprintf("%s %d", name, r.Status[name]))
		}
		fmt.Fprintf(&sb, "status: %s\n", strings.Join(parts, ", "))
	}
	return sb.String()
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
