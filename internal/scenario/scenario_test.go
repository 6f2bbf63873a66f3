package scenario

import (
	"math"
	"strings"
	"testing"

	"thermbal/internal/policy"
	"thermbal/internal/sim"
)

func TestBuiltinCatalogue(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("only %d scenarios registered: %v", len(names), names)
	}
	for _, want := range []string{
		"sdr-radio", "video-decoder", "pipeline-d8", "fanout-w4", "bursty-sdr", "manycore-8",
	} {
		if _, err := Lookup(want); err != nil {
			t.Errorf("Lookup(%q): %v", want, err)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := Lookup("no-such-scenario")
	if err == nil {
		t.Fatal("Lookup(no-such-scenario) succeeded")
	}
	if !strings.Contains(err.Error(), "sdr-radio") {
		t.Errorf("error %q does not list registered scenarios", err)
	}
}

// TestCatalogueInvariants checks what the static catalogue's lookups
// rely on: names are non-empty, unique and sorted; none contains ':', so
// the "spec:" key prefix of inline specs cannot collide with a name; and
// no two builtins share a canonical spec hash, so BuiltinNameForSpec
// names exactly one builtin. It resolves all builtins through All, so it
// is also the guard against a malformed one: the catalogue resolves an
// entry on first use, not at package init, and a builtin whose spec does
// not normalize would otherwise fail only when first asked for.
func TestCatalogueInvariants(t *testing.T) {
	names := Names()
	for i, n := range names {
		if n == "" || strings.Contains(n, ":") {
			t.Errorf("builtin name %q is empty or contains ':'", n)
		}
		if i > 0 && names[i-1] >= n {
			t.Errorf("names not unique and sorted: %q before %q", names[i-1], n)
		}
	}
	byHash := map[string]string{}
	for i, s := range All() {
		if c := catalogue[i].cores; c != s.Platform.Cores {
			t.Errorf("%s: catalogue labels %d cores, its spec has %d", s.Name, c, s.Platform.Cores)
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if prev, dup := byHash[h]; dup {
			t.Errorf("%s and %s share the canonical spec hash %s", prev, s.Name, h)
		}
		byHash[h] = s.Name
	}
}

// TestDeterministicConstruction instantiates every scenario twice and
// requires identical task sets: names, loads and placements. Generated
// families must be functions of their seed only.
func TestDeterministicConstruction(t *testing.T) {
	for _, s := range All() {
		a, err := s.Instantiate(Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		b, err := s.Instantiate(Options{})
		if err != nil {
			t.Fatalf("%s (second build): %v", s.Name, err)
		}
		if a.Graph.NumTasks() != b.Graph.NumTasks() {
			t.Fatalf("%s: task counts differ: %d vs %d", s.Name, a.Graph.NumTasks(), b.Graph.NumTasks())
		}
		if len(s.Graph.Tasks) != a.Graph.NumTasks() {
			t.Errorf("%s: catalogue says %d tasks, built %d", s.Name, len(s.Graph.Tasks), a.Graph.NumTasks())
		}
		for i := 0; i < a.Graph.NumTasks(); i++ {
			ta, tb := a.Graph.Task(i), b.Graph.Task(i)
			if ta.Name != tb.Name || ta.FSE != tb.FSE || ta.Core != tb.Core {
				t.Fatalf("%s: task %d differs: %s/%g/core%d vs %s/%g/core%d",
					s.Name, i, ta.Name, ta.FSE, ta.Core, tb.Name, tb.FSE, tb.Core)
			}
		}
		if a.Platform.NumCores() != s.Platform.Cores {
			t.Errorf("%s: platform has %d cores, catalogue says %d", s.Name, a.Platform.NumCores(), s.Platform.Cores)
		}
	}
}

// TestAllScenariosPlacedAndRunnable checks every scenario's tasks are
// placed on valid cores and its default policy resolves in the policy
// registry.
func TestAllScenariosPlacedAndRunnable(t *testing.T) {
	for _, s := range All() {
		inst, err := s.Instantiate(Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, tk := range inst.Graph.Tasks() {
			if tk.Core < 0 || tk.Core >= s.Platform.Cores {
				t.Errorf("%s: task %s on core %d (platform has %d)", s.Name, tk.Name, tk.Core, s.Platform.Cores)
			}
		}
		if _, err := policy.New(s.DefaultPolicy, policy.Args{Delta: s.DefaultDelta}); err != nil {
			t.Errorf("%s: default policy: %v", s.Name, err)
		}
	}
}

// TestBurstyModulatorShiftsLoad runs the bursty scenario briefly and
// checks the modulator actually moves load between task groups.
func TestBurstyModulatorShiftsLoad(t *testing.T) {
	s, err := Lookup("bursty-sdr")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Instantiate(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Modulate == nil {
		t.Fatal("bursty-sdr has no modulator")
	}
	base := make([]float64, inst.Graph.NumTasks())
	for i, tk := range inst.Graph.Tasks() {
		base[i] = tk.FSE
	}
	if !inst.Modulate(math.Inf(-1), 0, inst.Graph.Tasks()) {
		t.Fatal("first modulator call reported no change")
	}
	phase0 := make([]float64, len(base))
	for i, tk := range inst.Graph.Tasks() {
		phase0[i] = tk.FSE
	}
	if inst.Modulate(0, 1.0, inst.Graph.Tasks()) {
		t.Error("mid-phase call reported a change")
	}
	if !inst.Modulate(1.0, burstPeriodS+0.01, inst.Graph.Tasks()) {
		t.Fatal("phase flip not reported")
	}
	flipped := false
	for i, tk := range inst.Graph.Tasks() {
		if tk.FSE != phase0[i] {
			flipped = true
		}
		if tk.FSE > 1 {
			t.Errorf("task %d modulated FSE %g > 1", i, tk.FSE)
		}
	}
	if !flipped {
		t.Fatal("phase flip left every load unchanged")
	}
}

// TestScenarioEndToEnd drives a short simulation through a synthetic
// scenario with its default policy, modulator included.
func TestScenarioEndToEnd(t *testing.T) {
	for _, name := range []string{"pipeline-d8", "fanout-w4", "bursty-sdr"} {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := s.Instantiate(Options{})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := policy.New(s.DefaultPolicy, policy.Args{Delta: s.DefaultDelta})
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(sim.Config{
			PolicyStartS:  1,
			MeasureStartS: 1,
			Modulate:      inst.Modulate,
		}, inst.Platform, inst.Graph, pol)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := e.Run(3); err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		res := e.Summarize()
		if res.FramesConsumed == 0 {
			t.Errorf("%s: no frames consumed in 3 s", name)
		}
	}
}
