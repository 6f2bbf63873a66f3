// scenarios shows the scenario and policy registries: enumerate the
// catalogue, instantiate a synthetic scenario by name, and run a
// head-to-head comparison across registered policies — the same
// machinery behind `thermsim -list` and `thermsim -matrix`.
//
//	go run ./examples/scenarios
package main

import (
	"context"
	"fmt"
	"log"

	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/service"
)

func main() {
	log.SetFlags(0)

	fmt.Println("Registered scenarios:")
	for _, s := range scenario.All() {
		fmt.Printf("  %-14s %2d cores, %2d tasks  %s\n", s.Name, s.Cores, s.Tasks, s.Topology)
	}
	fmt.Printf("\nRegistered policies: %v\n\n", policy.Names())

	// Head-to-head on a deep pipeline: every stage sits on the critical
	// path, so migration freezes are maximally visible.
	cells, err := service.RunMatrix(context.Background(), experiment.Runner{},
		service.MatrixRequest{
			Scenarios: []string{"pipeline-d8", "bursty-sdr"},
			Policies:  []string{"energy-balance", "thermal-balance"},
			WarmupS:   5,
			MeasureS:  15,
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiment.FormatMatrix(cells))
}
