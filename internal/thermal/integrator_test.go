package thermal

import (
	"math"
	"strings"
	"testing"
)

// singleNode builds the analytic benchmark network: one RC node to
// ambient with R=25 K/W, C=0.04 J/K (tau = 1 s).
func singleNode(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	b.AddNode("node", 0.04, 1/25.0)
	n, err := b.Build(25)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestParseScheme(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scheme
		ok   bool
	}{
		{"euler", Euler, true},
		{"", Euler, true},
		{"expm", Expm, true},
		{"exp", Expm, true},
		{"exact", Expm, true},
		{"simpson", Euler, false},
		{"rk4", Euler, false},
		{"rk4-adaptive", Euler, false},
		{"adaptive", Euler, false},
	} {
		got, err := ParseScheme(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseScheme(%q) err = %v", tc.in, err)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseScheme(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Removed schemes are refused with the supported list.
	if _, err := ParseScheme("rk4"); err == nil || !strings.Contains(err.Error(), "euler | expm") {
		t.Errorf("ParseScheme(rk4) err = %v, want the euler | expm list", err)
	}
	// Round trip through String.
	for _, s := range []Scheme{Euler, Expm} {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
}

func TestNewIntegratorNames(t *testing.T) {
	for _, s := range []Scheme{Euler, Expm} {
		ig := NewIntegrator(s)
		if ig.Name() != s.String() {
			t.Errorf("NewIntegrator(%v).Name() = %q", s, ig.Name())
		}
	}
}

// The default integrator must be identical to an explicitly configured
// Euler: same trajectory to the last bit.
func TestDefaultIntegratorIsEulerBitForBit(t *testing.T) {
	n1 := singleNode(t)
	n2 := singleNode(t)
	n2.SetIntegrator(NewIntegrator(Euler))
	if n1.Integrator().Name() != "euler" {
		t.Fatalf("default integrator = %q", n1.Integrator().Name())
	}
	p := []float64{0.5}
	for i := 0; i < 500; i++ {
		if err := n1.Step(0.01, p); err != nil {
			t.Fatal(err)
		}
		if err := n2.Step(0.01, p); err != nil {
			t.Fatal(err)
		}
		if n1.Temperature(0) != n2.Temperature(0) {
			t.Fatalf("step %d: default %v != explicit euler %v", i, n1.Temperature(0), n2.Temperature(0))
		}
	}
}

func TestViewExposesTopology(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode("die", 0.01, 0)
	s := b.AddNode("sink", 0.1, 0.05)
	b.Connect(a, s, 0.1)
	n, err := b.Build(25)
	if err != nil {
		t.Fatal(err)
	}
	v := n.View()
	if v.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", v.NumNodes())
	}
	if v.Capacitance(0) != 0.01 || v.Capacitance(1) != 0.1 {
		t.Errorf("capacitances = %g, %g", v.Capacitance(0), v.Capacitance(1))
	}
	if v.AmbientG(0) != 0 || v.AmbientG(1) != 0.05 {
		t.Errorf("ambientG = %g, %g", v.AmbientG(0), v.AmbientG(1))
	}
	if v.Ambient() != 25 {
		t.Errorf("Ambient = %g", v.Ambient())
	}
	if math.Abs(v.SumG(0)-0.1) > 1e-15 || math.Abs(v.SumG(1)-0.15) > 1e-15 {
		t.Errorf("sumG = %g, %g", v.SumG(0), v.SumG(1))
	}
	nb := v.Neighbors(0)
	if len(nb) != 1 || nb[0].Node != 1 || nb[0].G != 0.1 {
		t.Errorf("Neighbors(0) = %+v", nb)
	}
	// The derivative the accessors describe is identically zero at
	// uniform ambient with no power.
	dst := make([]float64, 2)
	nodeDeriv(v, []float64{25, 25}, []float64{0, 0}, dst)
	if dst[0] != 0 || dst[1] != 0 {
		t.Errorf("dT/dt at equilibrium = %v", dst)
	}
}

func TestSetIntegratorIgnoresNil(t *testing.T) {
	n := singleNode(t)
	n.SetIntegrator(nil)
	if n.Integrator() == nil {
		t.Fatal("nil integrator installed")
	}
	if err := n.Step(0.1, []float64{0}); err != nil {
		t.Fatal(err)
	}
}
