package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Spec is the part of BENCHMARK.json that -compare applies: the gated
// metrics with their bounds.
type Spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better better  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadResults reads the untraced results files in dir, by workload.
func LoadResults(dir string) (map[string][]Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]Result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || r.Trace {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced results files", dir)
	}
	return out, nil
}

// Side summarizes one side's runs of a metric.
type Side struct {
	Q1, Median, Q3 float64
	N              int
}

func side(xs []float64) Side {
	q1, m, q3 := quartiles(xs)
	return Side{Q1: q1, Median: m, Q3: q3, N: len(xs)}
}

// spread is the quartile distance as a share of the median.
func (s Side) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Row is one (workload, metric) comparison.
type Row struct {
	Workload, Metric string
	A, B             Side
	Bound            float64
	Verdict          string
}

// Verdicts.
const (
	Better     = "better"
	Same       = "same"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// verdict judges B (the change) against A (the parent) on one metric.
// Unresolved: either side's quartile spread exceeds the bound, and the
// runs overlap (neither every run of B beats every run of A nor the
// other way round). Worse: B's median is worse than A's by more than
// the bound. Better: B's median beats A's by more than A's quartile
// distance and B wins at least nine tenths of all (A, B) run pairs,
// ties counting for neither.
func verdict(a, b []float64, bound float64, dir better) string {
	sa, sb := side(a), side(b)
	beats := func(x, y float64) bool { // x better than y
		if dir == higher {
			return x > y
		}
		return x < y
	}
	wins, losses, pairs := 0, 0, 0
	for _, x := range a {
		for _, y := range b {
			pairs++
			if beats(y, x) {
				wins++
			}
			if beats(x, y) {
				losses++
			}
		}
	}
	separated := pairs > 0 && (wins == pairs || losses == pairs)
	if !separated && max(sa.spread(), sb.spread()) > bound {
		return Unresolved
	}
	if sa.Median == 0 {
		if sb.Median == 0 {
			return Same
		}
		if beats(sb.Median, 0) {
			return Better
		}
		return Worse
	}
	change := (sb.Median - sa.Median) / math.Abs(sa.Median) // signed share
	if dir == higher {
		change = -change
	}
	// change > 0 now means B is worse.
	if change > bound {
		return Worse
	}
	if -change*math.Abs(sa.Median) > sa.Q3-sa.Q1 && float64(wins) >= 0.9*float64(pairs) {
		return Better
	}
	return Same
}

// Compare applies spec's bounds to every gated metric of every
// workload present in both a and b, plus the failure fraction, which
// may not rise at all.
func Compare(spec Spec, a, b map[string][]Result) []Row {
	var names []string
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	order := map[string]int{}
	for i, w := range Workloads {
		order[w] = i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	var rows []Row
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			va, vb := values(a[w], m.Name), values(b[w], m.Name)
			rows = append(rows, Row{
				Workload: w, Metric: m.Name,
				A: side(va), B: side(vb),
				Bound:   m.Bound,
				Verdict: verdict(va, vb, m.Bound, m.Better),
			})
		}
		fa, fb := failFrac(a[w]), failFrac(b[w])
		v := Same
		switch {
		case fb > fa:
			v = Worse
		case fb < fa:
			v = Better
		}
		rows = append(rows, Row{
			Workload: w, Metric: "fail_frac",
			A: Side{Q1: fa, Median: fa, Q3: fa, N: len(a[w])}, B: Side{Q1: fb, Median: fb, Q3: fb, N: len(b[w])},
			Verdict: v,
		})
	}
	return rows
}

func values(rs []Result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failFrac is failed ÷ attempted over all runs.
func failFrac(rs []Result) float64 {
	var f, n int
	for _, r := range rs {
		f += r.Failed
		n += r.Attempted
	}
	if n == 0 {
		return 1
	}
	return float64(f) / float64(n)
}

// FormatRows renders the comparison table.
func FormatRows(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %-34s %-34s %7s %6s %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound", "verdict")
	for _, r := range rows {
		change := 0.0
		if r.A.Median != 0 {
			change = 100 * (r.B.Median - r.A.Median) / math.Abs(r.A.Median)
		}
		fmt.Fprintf(&b, "%-12s %-12s %-34s %-34s %+6.1f%% %5.0f%% %s\n", r.Workload, r.Metric,
			fmtSide(r.A), fmtSide(r.B), change, 100*r.Bound, r.Verdict)
	}
	return b.String()
}

func fmtSide(s Side) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Median, s.Q1, s.Q3, s.N)
}
