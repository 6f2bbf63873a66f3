package thermal

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// twoNode builds a minimal network: one heated node coupled to one node
// that convects to ambient.
func twoNode(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	a := b.AddNode("die", 0.01, 0)
	s := b.AddNode("sink", 0.1, 0.05) // R=20 K/W to ambient
	b.Connect(a, s, 0.1)              // R=10 K/W
	n, err := b.Build(25)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
		want  string
	}{
		{"empty name", func(b *Builder) { b.AddNode("", 1, 0) }, "empty node name"},
		{"duplicate", func(b *Builder) { b.AddNode("x", 1, 0); b.AddNode("x", 1, 0) }, "duplicate"},
		{"bad capacitance", func(b *Builder) { b.AddNode("x", 0, 0) }, "capacitance"},
		{"negative ambientG", func(b *Builder) { b.AddNode("x", 1, -1) }, "ambient"},
		{"connect range", func(b *Builder) { b.AddNode("x", 1, 0.1); b.Connect(0, 5, 1) }, "out of range"},
		{"self connect", func(b *Builder) { b.AddNode("x", 1, 0.1); b.Connect(0, 0, 1) }, "self-connection"},
		{"bad conductance", func(b *Builder) {
			b.AddNode("x", 1, 0.1)
			b.AddNode("y", 1, 0)
			b.Connect(0, 1, 0)
		}, "non-positive conductance"},
		{"no nodes", func(b *Builder) {}, "no nodes"},
		{"no conductances", func(b *Builder) { b.AddNode("x", 1, 0) }, "no conductances"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			tc.build(b)
			_, err := b.Build(25)
			if err == nil {
				t.Fatalf("Build succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestBuilderErrorSticks(t *testing.T) {
	b := NewBuilder()
	if idx := b.AddNode("", 1, 0); idx != -1 {
		t.Errorf("AddNode after error returned %d, want -1", idx)
	}
	if idx := b.AddNode("ok", 1, 0.1); idx != -1 {
		t.Errorf("AddNode after sticky error returned %d, want -1", idx)
	}
	if _, err := b.Build(25); err == nil {
		t.Error("Build ignored sticky error")
	}
}

func TestInitialTemperatureIsAmbient(t *testing.T) {
	n := twoNode(t)
	for i := 0; i < n.NumNodes(); i++ {
		if n.Temperature(i) != 25 {
			t.Errorf("node %d initial temp = %g, want ambient 25", i, n.Temperature(i))
		}
	}
	if n.ambient != 25 {
		t.Errorf("ambient = %g", n.ambient)
	}
}

func TestZeroPowerStaysAtAmbient(t *testing.T) {
	n := twoNode(t)
	if err := n.Step(100, []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n.NumNodes(); i++ {
		if math.Abs(n.Temperature(i)-25) > 1e-9 {
			t.Errorf("node %d drifted to %g with zero power", i, n.Temperature(i))
		}
	}
}

func TestSteadyStateMatchesHandComputation(t *testing.T) {
	// die --R=10-- sink --R=20-- ambient, 1 W into die:
	// sink = 25 + 1*20 = 45, die = 45 + 1*10 = 55.
	n := twoNode(t)
	ss, err := n.SteadyState([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ss[0]-55) > 1e-9 {
		t.Errorf("die steady = %g, want 55", ss[0])
	}
	if math.Abs(ss[1]-45) > 1e-9 {
		t.Errorf("sink steady = %g, want 45", ss[1])
	}
}

func TestStepConvergesToSteadyState(t *testing.T) {
	n := twoNode(t)
	p := []float64{1, 0}
	want, err := n.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	// Integrate long enough: dominant tau = 0.1*20 = 2 s; 60 s >> 5 tau.
	if err := n.Step(60, p); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(n.Temperature(i)-want[i]) > 0.01 {
			t.Errorf("node %d = %g after long run, steady state %g", i, n.Temperature(i), want[i])
		}
	}
}

func TestSettleToSteadyState(t *testing.T) {
	n := twoNode(t)
	if err := n.SettleToSteadyState([]float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.Temperature(0)-55) > 1e-9 {
		t.Errorf("settle die = %g, want 55", n.Temperature(0))
	}
}

// Step must refuse a short power vector, and a negative, NaN or
// infinite span under every scheme, leaving the state untouched. An
// infinite span would otherwise substep forever, so each call runs
// under a deadline.
func TestStepRejectsBadInputs(t *testing.T) {
	n := twoNode(t)
	if err := n.Step(1, []float64{0}); err == nil {
		t.Error("short power vector accepted")
	}
	if _, err := n.SteadyState([]float64{0}); err == nil {
		t.Error("SteadyState accepted short power vector")
	}
	for _, scheme := range schemes {
		n.SetIntegrator(NewIntegrator(scheme))
		for _, dt := range []float64{-1, math.Copysign(1e-300, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
			before := n.Temperatures(nil)
			done := make(chan error, 1)
			go func() { done <- n.Step(dt, []float64{0.5, 0}) }()
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("%v: Step(%g) accepted", scheme, dt)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%v: Step(%g) still running after 10 s", scheme, dt)
			}
			if i, ok := sameBits(n.temp, before); !ok {
				t.Errorf("%v: refused Step(%g) changed node %d", scheme, dt, i)
			}
		}
	}
}

func TestSteadyStateSingularWithoutAmbientPath(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode("a", 1, 0)
	c := b.AddNode("b", 1, 0)
	b.Connect(a, c, 1)
	n, err := b.Build(25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.SteadyState([]float64{1, 0}); err == nil {
		t.Error("SteadyState solved a floating network")
	}
}

func TestStabilityUnderLargeSteps(t *testing.T) {
	// A single huge step must substep internally and land at the same
	// temperature as many small steps, within integration tolerance,
	// and must never oscillate unstably.
	n1 := twoNode(t)
	n2 := twoNode(t)
	p := []float64{2, 0}
	if err := n1.Step(10, p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := n2.Step(0.001, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n1.NumNodes(); i++ {
		d := math.Abs(n1.Temperature(i) - n2.Temperature(i))
		if d > 0.05 {
			t.Errorf("node %d: large-step %g vs small-step %g (diff %g)", i, n1.Temperature(i), n2.Temperature(i), d)
		}
		if n1.Temperature(i) > 200 || math.IsNaN(n1.Temperature(i)) {
			t.Errorf("node %d unstable: %g", i, n1.Temperature(i))
		}
	}
}

func TestMaxStableStepPositive(t *testing.T) {
	n := twoNode(t)
	if s := n.View().EulerMaxStep(); s <= 0 {
		t.Errorf("EulerMaxStep = %g", s)
	}
}

// Energy conservation: over one step, stored heat change equals
// (power in - ambient outflow) integrated. Checked with tiny steps where
// Euler error is negligible.
func TestEnergyBalance(t *testing.T) {
	n := twoNode(t)
	p := []float64{1.5, 0.25}
	const h = 1e-4
	var injected, leaked float64
	for i := 0; i < 20000; i++ {
		leaked += n.AmbientOutflow() * h
		if err := n.Step(h, p); err != nil {
			t.Fatal(err)
		}
		injected += (p[0] + p[1]) * h
	}
	stored := n.TotalHeatContent()
	if diff := math.Abs(stored - (injected - leaked)); diff > 0.02*injected {
		t.Errorf("energy imbalance: stored %g, injected-leaked %g", stored, injected-leaked)
	}
}

// Property: superposition holds at steady state (the network is linear):
// T(p1+p2) - Tamb == (T(p1)-Tamb) + (T(p2)-Tamb).
func TestSteadyStateSuperpositionProperty(t *testing.T) {
	n := twoNode(t)
	f := func(a, b uint8) bool {
		p1 := []float64{float64(a) / 64, 0}
		p2 := []float64{0, float64(b) / 64}
		sum := []float64{p1[0], p2[1]}
		s1, err1 := n.SteadyState(p1)
		s2, err2 := n.SteadyState(p2)
		s12, err3 := n.SteadyState(sum)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range s12 {
			lhs := s12[i] - 25
			rhs := (s1[i] - 25) + (s2[i] - 25)
			if math.Abs(lhs-rhs) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: more power never lowers any steady-state temperature
// (monotonicity of the resistive network).
func TestSteadyStateMonotonicityProperty(t *testing.T) {
	n := twoNode(t)
	f := func(a uint8, extra uint8) bool {
		base := float64(a) / 100
		s1, err1 := n.SteadyState([]float64{base, 0})
		s2, err2 := n.SteadyState([]float64{base + float64(extra)/100, 0})
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range s1 {
			if s2[i] < s1[i]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNodeAccessors(t *testing.T) {
	n := twoNode(t)
	if n.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", n.NumNodes())
	}
	if n.nodes[0].Name != "die" || n.nodes[1].Name != "sink" {
		t.Errorf("node names = %q, %q", n.nodes[0].Name, n.nodes[1].Name)
	}
	n.SetTemperature(0, 80)
	if n.Temperature(0) != 80 {
		t.Error("SetTemperature did not stick")
	}
	n.SetTemperature(0, 30)
	n.SetTemperature(1, 30)
	if n.Temperature(0) != 30 || n.Temperature(1) != 30 {
		t.Error("SetTemperature did not stick")
	}
	buf := n.Temperatures(nil)
	if len(buf) != 2 || buf[0] != 30 {
		t.Errorf("Temperatures = %v", buf)
	}
	reuse := make([]float64, 2)
	if got := n.Temperatures(reuse); &got[0] != &reuse[0] {
		t.Error("Temperatures did not reuse caller buffer")
	}
}

// Analytic validation: a single RC node has the exact solution
// T(t) = Tamb + P·R·(1 - exp(-t/RC)). The integrator must track it.
func TestSingleNodeMatchesAnalyticSolution(t *testing.T) {
	const (
		r    = 25.0 // K/W
		c    = 0.04 // J/K
		p    = 0.5  // W
		amb  = 25.0
		tau  = r * c // 1 s
		tEnd = 3.0
	)
	b := NewBuilder()
	b.AddNode("node", c, 1/r)
	n, err := b.Build(amb)
	if err != nil {
		t.Fatal(err)
	}
	pw := []float64{p}
	for tm := 0.0; tm < tEnd; tm += 0.01 {
		if err := n.Step(0.01, pw); err != nil {
			t.Fatal(err)
		}
		want := amb + p*r*(1-math.Exp(-(tm+0.01)/tau))
		if diff := math.Abs(n.Temperature(0) - want); diff > 0.05 {
			t.Fatalf("t=%.2f: simulated %.4f vs analytic %.4f (diff %.4f)", tm, n.Temperature(0), want, diff)
		}
	}
	// And the cool-down branch.
	start := n.Temperature(0)
	zero := []float64{0}
	for tm := 0.0; tm < tEnd; tm += 0.01 {
		if err := n.Step(0.01, zero); err != nil {
			t.Fatal(err)
		}
		want := amb + (start-amb)*math.Exp(-(tm+0.01)/tau)
		if diff := math.Abs(n.Temperature(0) - want); diff > 0.05 {
			t.Fatalf("cooldown t=%.2f: %.4f vs %.4f", tm, n.Temperature(0), want)
		}
	}
}
