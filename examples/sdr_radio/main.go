// sdr_radio drives the full Software-Defined FM Radio experiment at the
// substrate level: it instantiates the sdr-radio scenario and wires the
// engine by hand, runs warm-up plus a balanced phase, exports the temperature
// timeline as CSV, and dumps per-queue and per-task statistics — the
// kind of inspection the paper's PowerPC statistics sniffers provided.
//
//	go run ./examples/sdr_radio            # report to stdout
//	go run ./examples/sdr_radio -csv t.csv # plus timeline export
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
)

var (
	csvPath = flag.String("csv", "", "write the temperature/frequency timeline to this CSV file")
	delta   = flag.Float64("delta", 3, "balancing threshold (°C)")
)

func main() {
	log.SetFlags(0)
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates the balanced SDR radio at the -delta threshold and
// prints the report to w, writing the timeline to -csv when set.
func run(w io.Writer) error {
	// The SDR pipeline of the paper's Figure 6 with Table 2 loads
	// (LPF -> DEMOD -> {BPF1, BPF2, BPF3} -> SUM, 50 frames/s) on the
	// 3-core MPSoC with the mobile-embedded thermal package.
	sc, err := scenario.Lookup("sdr-radio")
	if err != nil {
		return err
	}
	inst, err := sc.Instantiate(scenario.Options{})
	if err != nil {
		return err
	}
	graph, plat := inst.Graph, inst.Platform

	balancer := policy.NewBalancer(policy.BalancerParams{Delta: *delta})
	engine, err := sim.New(sim.Config{
		PolicyStartS:  experiment.DefaultWarmupS, // the paper's first execution phase
		MeasureStartS: experiment.DefaultWarmupS,
		RecordTrace:   true,
	}, plat, graph, balancer)
	if err != nil {
		return err
	}
	engine.SetOvershootDelta(*delta)

	if err := engine.Run(experiment.DefaultWarmupS + experiment.DefaultMeasureS); err != nil {
		return err
	}
	res := engine.Summarize()

	fmt.Fprintf(w, "SDR radio, thermal balancing at ±%.0f °C (%.0f s measured)\n\n", *delta, res.MeasuredS)
	fmt.Fprintf(w, "temperature: pooled std %.3f °C, gradient %.2f °C, max %.2f °C\n",
		res.PooledStdDev, res.MeanGradient, res.MaxTemp)
	fmt.Fprintf(w, "QoS: %d misses over %d deadlines (%.2f%%)\n",
		res.DeadlineMisses, res.DeadlineMisses+res.FramesConsumed, res.MissRatePct)
	fmt.Fprintf(w, "migrations: %d (%.2f/s), %.0f KB moved, mean freeze %.0f ms\n\n",
		res.Migrations, res.MigrationsPerSec, res.MigratedBytes/1024, res.MeanFreezeS*1e3)

	fmt.Fprintln(w, "per-task statistics:")
	for _, t := range graph.Tasks() {
		fmt.Fprintf(w, "  %-6s core%d  %6d frames  %2d migrations\n",
			t.Name, t.Core+1, t.FramesCompleted, t.Migrations)
	}

	fmt.Fprintln(w, "\nper-queue statistics:")
	for qi := 0; qi < graph.NumQueues(); qi++ {
		s := graph.Queue(qi).Stats()
		fmt.Fprintf(w, "  %-14s cap %2d  mean level %5.2f  max %2d  overruns %d\n",
			s.Name, s.Cap, s.MeanLevel, s.MaxLevel, s.Overruns)
	}

	fmt.Fprintln(w, "\nmigration breakdown:")
	for _, t := range graph.Tasks() {
		if t.Migrations > 0 {
			fmt.Fprintf(w, "  %-6s moved %d times\n", t.Name, t.Migrations)
		}
	}

	if *csvPath == "" {
		return nil
	}
	f, err := os.Create(*csvPath)
	if err != nil {
		return err
	}
	if err := engine.Recorder().WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\ntimeline written to %s (%d samples)\n", *csvPath, len(engine.Recorder().Samples()))
	return err
}
