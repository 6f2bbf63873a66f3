package experiment

import (
	"context"
	"strings"
	"testing"
)

func TestMatrixSmall(t *testing.T) {
	cells, err := Matrix(context.Background(), Options{}, MatrixConfig{
		Scenarios: []string{"sdr-radio", "fanout-w4"},
		Policies:  []string{"energy-balance", "tb"},
		Delta:     3,
		WarmupS:   1,
		MeasureS:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	want := []struct{ sc, pol string }{
		{"sdr-radio", "energy-balance"},
		{"sdr-radio", "thermal-balance"},
		{"fanout-w4", "energy-balance"},
		{"fanout-w4", "thermal-balance"},
	}
	for i, w := range want {
		if cells[i].Scenario != w.sc || cells[i].Policy != w.pol {
			t.Errorf("cell %d = (%s, %s), want (%s, %s)",
				i, cells[i].Scenario, cells[i].Policy, w.sc, w.pol)
		}
		if cells[i].Result.FramesConsumed == 0 {
			t.Errorf("cell %d consumed no frames", i)
		}
	}
	out := FormatMatrix(cells)
	for _, s := range []string{"sdr-radio", "fanout-w4", "thermal-balance"} {
		if !strings.Contains(out, s) {
			t.Errorf("formatted matrix missing %q:\n%s", s, out)
		}
	}
}

func TestMatrixUnknownAxes(t *testing.T) {
	if _, err := Matrix(context.Background(), Options{}, MatrixConfig{Scenarios: []string{"bogus"}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := Matrix(context.Background(), Options{}, MatrixConfig{
		Scenarios: []string{"sdr-radio"}, Policies: []string{"bogus"},
	}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestRunByNameMatchesSel verifies the registry path produces the same
// result as the legacy PolicySel path for the paper workload: the
// scenario+name rewiring must keep paper outputs bit-for-bit identical.
func TestRunByNameMatchesSel(t *testing.T) {
	legacy, _, err := Run(RunConfig{Policy: ThermalBalance, Delta: 3, WarmupS: 2, MeasureS: 3})
	if err != nil {
		t.Fatal(err)
	}
	byName, _, err := Run(RunConfig{
		Scenario: "sdr-radio", PolicyName: "thermal-balance", Delta: 3, WarmupS: 2, MeasureS: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if legacy != byName {
		t.Fatalf("registry path diverged from PolicySel path:\nlegacy: %+v\nbyName: %+v", legacy, byName)
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if _, _, err := Run(RunConfig{Scenario: "bogus"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestRunUnknownPolicyName(t *testing.T) {
	if _, _, err := Run(RunConfig{PolicyName: "bogus", WarmupS: 1, MeasureS: 1}); err == nil {
		t.Fatal("unknown policy name accepted")
	}
}
