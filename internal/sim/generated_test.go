package sim_test

import (
	"fmt"
	"testing"

	"thermbal/internal/core"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
)

// splitJoin compiles a seeded split/join workload (scenario.SplitJoin)
// on the mobile package, tasks placed by the balanced mapping.
func splitJoin(t *testing.T, seed int64, stages, maxWidth int, totalFSE float64, cores int) *scenario.Instance {
	t.Helper()
	inst, err := scenario.Compile(scenario.SplitJoin(seed, stages, maxWidth, totalFSE, cores), scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// The SDR benchmark is one member of the streaming class; the engine and
// the balancing policy must work on generated workloads too.
func TestGeneratedWorkloadsUnderBalancing(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inst := splitJoin(t, seed, 4, 3, 1.4, 3)
			e, err := sim.New(sim.Config{PolicyStartS: 12.5, MeasureStartS: 12.5},
				inst.Platform, inst.Graph, core.New(core.Params{Delta: 3}))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(27.5); err != nil {
				t.Fatal(err)
			}
			r := e.Summarize()
			// Sanity: the workload streamed. Some generated graphs have a
			// single dominant task whose repeated migration drains the
			// queues (the paper sized its queues for the SDR loads), so
			// QoS is only bounded loosely here.
			if r.FramesConsumed < 500 {
				t.Errorf("only %d frames consumed", r.FramesConsumed)
			}
			if r.MissRatePct > 35 {
				t.Errorf("miss rate %.1f%%", r.MissRatePct)
			}
			// Temperatures stayed physical.
			if r.MaxTemp > 95 || r.MaxTemp < 30 {
				t.Errorf("max temp %.1f implausible", r.MaxTemp)
			}
		})
	}
}

// A generated workload heavy enough to need every core must still meet
// its deadlines with the balanced mapping and no policy.
func TestGeneratedWorkloadFeasibility(t *testing.T) {
	inst := splitJoin(t, 9, 4, 3, 1.8, 3)
	load := make([]float64, 3)
	for _, tk := range inst.Graph.Tasks() {
		load[tk.Core] += tk.FSE
	}
	for c, l := range load {
		if l > 1 {
			t.Skipf("core %d overcommitted (%.2f); seed picks a different split", c, l)
		}
	}
	e, err := sim.New(sim.Config{}, inst.Platform, inst.Graph, policy.EnergyBalance{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if misses := e.Graph().SinkStats().Misses; misses != 0 {
		t.Errorf("%d misses on a feasible mapping", misses)
	}
}

// Scalability: the engine runs an 8-core platform with a generated
// workload (the paper's framework "can be scaled to any number of cores
// sub-systems", Section 4).
func TestEightCorePlatform(t *testing.T) {
	inst := splitJoin(t, 3, 6, 4, 2.5, 8)
	e, err := sim.New(sim.Config{PolicyStartS: 5, MeasureStartS: 5},
		inst.Platform, inst.Graph, core.New(core.Params{Delta: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(15); err != nil {
		t.Fatal(err)
	}
	r := e.Summarize()
	if r.FramesConsumed == 0 {
		t.Error("nothing streamed on 8 cores")
	}
	if r.MaxTemp > 95 {
		t.Errorf("max temp %.1f", r.MaxTemp)
	}
}
