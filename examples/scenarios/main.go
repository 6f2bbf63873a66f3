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
	"io"
	"log"
	"os"

	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	"thermbal/internal/request"
	"thermbal/internal/scenario"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run lists the catalogue and policies and prints a 2×2 scenario ×
// policy matrix to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "Registered scenarios:")
	for _, s := range scenario.Infos() {
		fmt.Fprintf(w, "  %-14s %2d cores, %2d tasks  %s\n", s.Name, s.Cores, s.Tasks, s.Topology)
	}
	fmt.Fprintf(w, "\nRegistered policies: %v\n\n", policy.Names())

	// Head-to-head on a deep pipeline: every stage sits on the critical
	// path, so migration freezes are maximally visible.
	cells, err := request.RunMatrix(context.Background(), experiment.Runner{},
		request.MatrixRequest{
			Scenarios: []string{"pipeline-d8", "bursty-sdr"},
			Policies:  []string{"energy-balance", "thermal-balance"},
			WarmupS:   5,
			MeasureS:  15,
		})
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(w, experiment.FormatMatrix(cells))
	return err
}
