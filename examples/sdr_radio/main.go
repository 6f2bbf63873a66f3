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
	"log"
	"os"

	"thermbal/internal/core"
	"thermbal/internal/experiment"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
)

func main() {
	log.SetFlags(0)
	csvPath := flag.String("csv", "", "write the temperature/frequency timeline to this CSV file")
	delta := flag.Float64("delta", 3, "balancing threshold (°C)")
	flag.Parse()

	// The SDR pipeline of the paper's Figure 6 with Table 2 loads
	// (LPF -> DEMOD -> {BPF1, BPF2, BPF3} -> SUM, 50 frames/s) on the
	// 3-core MPSoC with the mobile-embedded thermal package.
	sc, err := scenario.Lookup("sdr-radio")
	if err != nil {
		log.Fatal(err)
	}
	inst, err := sc.Instantiate(scenario.Options{})
	if err != nil {
		log.Fatal(err)
	}
	graph, plat := inst.Graph, inst.Platform

	balancer := core.New(core.Params{Delta: *delta})
	engine, err := sim.New(sim.Config{
		PolicyStartS:  experiment.DefaultWarmupS, // the paper's first execution phase
		MeasureStartS: experiment.DefaultWarmupS,
		RecordTrace:   true,
	}, plat, graph, balancer)
	if err != nil {
		log.Fatal(err)
	}
	engine.SetOvershootDelta(*delta)

	if err := engine.Run(experiment.DefaultWarmupS + experiment.DefaultMeasureS); err != nil {
		log.Fatal(err)
	}
	res := engine.Summarize()

	fmt.Printf("SDR radio, thermal balancing at ±%.0f °C (%.0f s measured)\n\n", *delta, res.MeasuredS)
	fmt.Printf("temperature: pooled std %.3f °C, gradient %.2f °C, max %.2f °C\n",
		res.PooledStdDev, res.MeanGradient, res.MaxTemp)
	fmt.Printf("QoS: %d misses over %d deadlines (%.2f%%)\n",
		res.DeadlineMisses, res.DeadlineMisses+res.FramesConsumed, res.MissRatePct)
	fmt.Printf("migrations: %d (%.2f/s), %.0f KB moved, mean freeze %.0f ms\n\n",
		res.Migrations, res.MigrationsPerSec, res.MigratedBytes/1024, res.MeanFreezeS*1e3)

	fmt.Println("per-task statistics:")
	for _, t := range graph.Tasks() {
		fmt.Printf("  %-6s core%d  %6d frames  %2d migrations\n",
			t.Name, t.Core+1, t.FramesCompleted, t.Migrations)
	}

	fmt.Println("\nper-queue statistics:")
	for qi := 0; qi < graph.NumQueues(); qi++ {
		s := graph.Queue(qi).Stats()
		fmt.Printf("  %-14s cap %2d  mean level %5.2f  max %2d  overruns %d\n",
			s.Name, s.Cap, s.MeanLevel, s.MaxLevel, s.Overruns)
	}

	migr := engine.Migrations().Stats()
	fmt.Println("\nmigration breakdown:")
	for _, t := range graph.Tasks() {
		if n := migr.PerTask[t.Name]; n > 0 {
			fmt.Printf("  %-6s moved %d times\n", t.Name, n)
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := engine.Recorder().WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntimeline written to %s (%d samples)\n", *csvPath, len(engine.Recorder().Samples()))
	}
}
