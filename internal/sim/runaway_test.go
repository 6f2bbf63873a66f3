package sim_test

import (
	"errors"
	"math"
	"testing"

	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/thermal"
)

// A die whose package cannot remove its power must stop with a typed
// refusal at the sensor update that first crosses the ceiling, not run
// on to NaN or millions of degrees. Both configurations used to do the
// latter under the high-performance package.
func TestThermalRunawayRefused(t *testing.T) {
	for _, name := range []string{"manycore-16", "manycore-32"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := scenario.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := sc.Instantiate(scenario.Options{Package: thermal.HighPerformance()})
			if err != nil {
				t.Fatal(err)
			}
			pol, err := policy.New("thermal-balance", policy.Args{Delta: sc.DefaultDelta})
			if err != nil {
				t.Fatal(err)
			}
			e, err := sim.New(sim.Config{PolicyStartS: sc.WarmupS, MeasureStartS: sc.WarmupS},
				inst.Platform, inst.Graph, pol)
			if err != nil {
				t.Fatal(err)
			}
			err = e.Run(sc.WarmupS + 5)
			if !errors.Is(err, sim.ErrThermalRunaway) {
				t.Fatalf("Run = %v, want a thermal runaway refusal", err)
			}
			var re *sim.RunawayError
			if !errors.As(err, &re) {
				t.Fatalf("%v is not a *sim.RunawayError", err)
			}
			if re.Core < 0 || re.Core >= inst.Platform.NumCores() {
				t.Errorf("runaway names core %d of %d", re.Core, inst.Platform.NumCores())
			}
			if re.TimeS != e.Now() {
				t.Errorf("runaway time %g, engine stopped at %g", re.TimeS, e.Now())
			}
			if !(re.TempC > sim.MaxDieTempC) && !math.IsNaN(re.TempC) {
				t.Errorf("runaway temperature %g is below the %d °C ceiling", re.TempC, sim.MaxDieTempC)
			}
		})
	}
}
