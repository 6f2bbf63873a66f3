package bench

import "testing"

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name  string
		a, b  []float64
		dir   better
		bound float64
		want  string
	}{
		{"identical", steady, steady, lower, 0.1, Same},
		{"within bound", steady, []float64{104, 105, 103, 104, 104.5}, lower, 0.1, Same},
		{"worse beyond bound", steady, []float64{115, 116, 114, 115, 115.5}, lower, 0.1, Worse},
		{"worse on a higher-is-better metric", steady, []float64{85, 86, 84, 85, 85.5}, higher, 0.1, Worse},
		{"better, every run", steady, []float64{80, 81, 79, 80, 80.5}, lower, 0.1, Better},
		{"better beyond the parent's spread", steady, []float64{97, 96, 97.5, 96.5, 98.9}, lower, 0.1, Better},
		{"spread wider than the bound", steady, []float64{60, 140, 100, 80, 120}, lower, 0.1, Unresolved},
		{"wide spread, all runs far better", []float64{100, 140, 60, 120, 80}, []float64{10, 11, 12, 13, 14}, lower, 0.1, Better},
		// Every run of B beats every run of A, so the spread does not
		// leave the verdict open, but the medians differ by less than
		// A's quartile distance: no gain is claimed.
		{"wide spread, all runs slightly better", []float64{100, 140, 60, 120, 80}, []float64{55, 56, 57, 58, 59}, lower, 0.1, Same},
		{"all runs slightly better, within the parent's spread", steady, []float64{98.9, 98.8, 98.7, 98.85, 98.95}, lower, 0.1, Same},
		{"wide spread, all runs worse", []float64{100, 140, 60, 120, 80}, []float64{150, 160, 170, 180, 190}, lower, 0.1, Worse},
	} {
		if got := verdict(c.a, c.b, c.bound, c.dir); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFailuresMayNotRise(t *testing.T) {
	var spec Spec
	spec.EndToEnd = append(spec.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better better  `json:"better"`
		Bound  float64 `json:"bound"`
	}{Name: "p50_ms", Unit: "ms", Better: lower, Bound: 0.1})
	run := func(v float64, failed int) Result {
		return Result{Workload: "serve-hot", Attempted: 100, Failed: failed, Metrics: map[string]Metric{"p50_ms": {Value: v, Unit: "ms"}}}
	}
	a := map[string][]Result{"serve-hot": {run(1, 0), run(1, 0)}}
	b := map[string][]Result{"serve-hot": {run(1, 0), run(1, 1)}}
	rows := Compare(spec, a, b)
	if len(rows) != 2 || rows[0].Verdict != Same || rows[1].Metric != "fail_frac" || rows[1].Verdict != Worse {
		t.Fatalf("rows = %+v", rows)
	}
}
