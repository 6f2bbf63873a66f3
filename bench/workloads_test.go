package bench

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// goBuild builds pkg (relative to dir) into out.
func goBuild(t *testing.T, dir, pkg, out string) {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, b)
	}
}

// TestWorkloadsTiny runs all four workloads, untraced and traced, at a
// tiny scale against thermservd and thermbench binaries built from
// this checkout, and requires correct outputs and every metric.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs every workload")
	}
	dir := t.TempDir()
	servd := filepath.Join(dir, "thermservd")
	self := filepath.Join(dir, "thermbench")
	goBuild(t, "..", "./cmd/thermservd", servd)
	goBuild(t, ".", "./cmd/thermbench", self)
	o := Options{
		Seed: 7, Seconds: 1.2, Servd: servd, Self: self, Out: filepath.Join(dir, "out"),
		lim: &limits{setupMin: 1, setupMax: 2, hotKeys: 48, traceCold: 12, traceHot: 300, handlerProbe: 4},
	}
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			o.Trace = traced
			r, err := Run(w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w, traced, r.Correct, r.Attempted, r.Failed, r.Notes)
			}
			defs := EndToEnd
			if traced {
				defs = PerLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || (!traced && m.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", w, traced, d.Name, m)
				}
			}
			if traced {
				if _, err := os.Stat(traceOut(o, w)); err != nil {
					t.Errorf("%s: no span file: %v", w, err)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// metrics the benchmark reports in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better better   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("workloads %v, want %v", names, Workloads)
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s[%d] = %s %s %s, want %s %s %s", kind, i, m.Name, m.Unit, m.Better, w.Name, w.Unit, w.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bad bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, EndToEnd, true)
	check("per_layer", doc.PerLayer, PerLayer, false)
	// Set-up time, timed over process starts, is the noisiest gated
	// metric, so no other metric has a wider bound.
	var setup, widest float64
	for _, m := range doc.EndToEnd {
		if m.Bound == nil {
			continue
		}
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
		widest = max(widest, *m.Bound)
	}
	if setup != widest {
		t.Errorf("setup_s bound %v, want the largest bound %v", setup, widest)
	}
}
