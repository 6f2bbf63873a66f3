// custom_policy shows how to plug a user-defined thermal policy into the
// emulation framework: it implements a naive "greedy" balancer that
// always moves the largest task from the hottest to the coolest core —
// without the paper's candidate conditions, cost function or rate
// limiting — and compares it against the paper's policy. The greedy
// variant migrates far more often for no additional thermal benefit,
// which is exactly why the paper bounds migration costs.
//
//	go run ./examples/custom_policy
package main

import (
	"fmt"
	"log"

	"thermbal/internal/core"
	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
)

// greedy is a deliberately naive thermal balancer.
type greedy struct {
	delta float64
}

// Name implements policy.Policy.
func (g *greedy) Name() string { return "greedy" }

// Decide implements policy.Policy: hottest core sheds its biggest task
// to the coolest core whenever the spread exceeds the threshold.
func (g *greedy) Decide(s *policy.Snapshot) []policy.Action {
	if s.MigrationsPending > 0 {
		return nil
	}
	hot, cold := 0, 0
	for c := 1; c < s.NumCores(); c++ {
		if s.Temp[c] > s.Temp[hot] {
			hot = c
		}
		if s.Temp[c] < s.Temp[cold] {
			cold = c
		}
	}
	if s.Temp[hot]-s.Temp[cold] < g.delta || hot == cold {
		return nil
	}
	best := -1
	for _, tv := range s.TasksOn(hot) {
		if tv.Migrating {
			continue
		}
		if best < 0 || tv.FSE > s.Tasks[best].FSE {
			best = tv.Index
		}
	}
	if best < 0 {
		return nil
	}
	return []policy.Action{policy.Migrate{Task: best, Dst: cold}}
}

func run(pol policy.Policy) sim.Result {
	sc, err := scenario.Lookup("sdr-radio")
	if err != nil {
		log.Fatal(err)
	}
	inst, err := sc.Instantiate(scenario.Options{})
	if err != nil {
		log.Fatal(err)
	}
	engine, err := sim.New(sim.Config{PolicyStartS: experiment.DefaultWarmupS, MeasureStartS: experiment.DefaultWarmupS}, inst.Platform, inst.Graph, pol)
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Run(experiment.DefaultWarmupS + experiment.DefaultMeasureS); err != nil {
		log.Fatal(err)
	}
	return engine.Summarize()
}

func main() {
	log.SetFlags(0)
	paper := run(core.New(core.Params{Delta: 3}))
	naive := run(&greedy{delta: 3})

	fmt.Println("Custom policy vs the paper's thermal balancer (±3 °C, 30 s)")
	fmt.Println()
	fmt.Printf("%-24s %12s %12s\n", "", "paper", "greedy")
	fmt.Printf("%-24s %12.3f %12.3f\n", "temp std dev [°C]", paper.PooledStdDev, naive.PooledStdDev)
	fmt.Printf("%-24s %12d %12d\n", "deadline misses", paper.DeadlineMisses, naive.DeadlineMisses)
	fmt.Printf("%-24s %12d %12d\n", "migrations", paper.Migrations, naive.Migrations)
	fmt.Printf("%-24s %12.1f %12.1f\n", "migrated KB/s", paper.BytesPerSec/1024, naive.BytesPerSec/1024)
	fmt.Println()
	if naive.Migrations > paper.Migrations {
		fmt.Printf("The greedy policy needed %.1fx the migrations (and bus traffic) of the\n",
			float64(naive.Migrations)/float64(max(paper.Migrations, 1)))
		fmt.Println("paper's policy — the candidate conditions and Eq. 1 cost bound pay off.")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
