package experiment_test

import (
	"context"
	"strings"
	"testing"

	"thermbal/internal/experiment"
	"thermbal/internal/service"
)

// The matrix display rows come from the service's canonical
// decomposition, which imports this package; these tests therefore
// live in the external test package.

const (
	// matrixGolden pins the scenario x policy table per integrator: a
	// paper die, a deep pipeline and a many-core die under each policy.
	matrixGoldenEuler = `Scenario x policy matrix
  scenario         policy           std[°C]  spatial  misses  rate%    migr  energy[J]
  sdr-radio        energy-balance     3.830    3.213       0   0.00       0      2.360
                   stop-go            1.319    0.557      79  79.00       0      1.182
                   thermal-balance    2.869    1.626       0   0.00       3      2.350
  pipeline-d8      energy-balance     2.336    1.140       0   0.00       0      2.294
                   stop-go            2.336    1.140       0   0.00       0      2.294
                   thermal-balance    2.336    1.140       0   0.00       0      2.294
  manycore-16      energy-balance     4.301    2.904       0   0.00       0     12.325
                   stop-go            0.680    0.496      90  90.00       0      4.813
                   thermal-balance    4.070    2.589       5   5.00       7     12.091
`
	matrixGoldenExpm = `Scenario x policy matrix
  scenario         policy           std[°C]  spatial  misses  rate%    migr  energy[J]
  sdr-radio        energy-balance     3.824    3.212       0   0.00       0      2.360
                   stop-go            1.293    0.548      80  80.00       0      1.180
                   thermal-balance    2.848    1.719       0   0.00       2      2.343
  pipeline-d8      energy-balance     2.323    1.138       0   0.00       0      2.294
                   stop-go            2.323    1.138       0   0.00       0      2.294
                   thermal-balance    2.323    1.138       0   0.00       0      2.294
  manycore-16      energy-balance     4.293    2.893       0   0.00       0     12.325
                   stop-go            0.682    0.496      90  90.00       0      4.814
                   thermal-balance    4.111    2.629       9   9.00       7     12.026
`
)

func TestMatrixSmall(t *testing.T) {
	cells, err := service.RunMatrix(context.Background(), experiment.Runner{}, service.MatrixRequest{
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
	out := experiment.FormatMatrix(cells)
	for _, s := range []string{"sdr-radio", "fanout-w4", "thermal-balance"} {
		if !strings.Contains(out, s) {
			t.Errorf("formatted matrix missing %q:\n%s", s, out)
		}
	}
}

func TestMatrixUnknownAxes(t *testing.T) {
	if _, err := service.CanonicalizeMatrix(service.MatrixRequest{Scenarios: []string{"bogus"}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := service.CanonicalizeMatrix(service.MatrixRequest{
		Scenarios: []string{"sdr-radio"}, Policies: []string{"bogus"},
	}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestFormatMatrixGolden(t *testing.T) {
	for integrator, golden := range map[string]string{"euler": matrixGoldenEuler, "expm": matrixGoldenExpm} {
		cells, err := service.RunMatrix(context.Background(), experiment.Runner{}, service.MatrixRequest{
			Scenarios:  []string{"sdr-radio", "pipeline-d8", "manycore-16"},
			Policies:   []string{"eb", "sg", "tb"},
			WarmupS:    1,
			MeasureS:   2,
			Integrator: integrator,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := experiment.FormatMatrix(cells); got != golden {
			t.Errorf("FormatMatrix (%s):\n%s\ngolden:\n%s", integrator, got, golden)
		}
	}
}
