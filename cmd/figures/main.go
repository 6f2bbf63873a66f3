// Command figures regenerates every table and figure of the paper's
// evaluation section in one shot (Tables 1-2, Figures 2 and 7-11), plus
// the Section 5 narrative checks. Use -only to restrict to a single
// artifact.
//
// Usage:
//
//	figures              # everything (~10 s)
//	figures -only fig7   # a single figure
//	figures -only narrative
//	figures -only matrix # scenario x policy cross product
//	figures -scenario pipeline-d8 -only fig7
//	figures -scenario-file my.json -only fig7
//	figures -workers 8 -integrator expm
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"thermbal/internal/cliutil"
	"thermbal/internal/experiment"
	"thermbal/internal/service"
	"thermbal/internal/thermal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	only := flag.String("only", "", "table1|table2|fig2|fig7|fig8|fig9|fig10|fig11|narrative|ablations|scale|matrix (empty = all paper artifacts)")
	workers := flag.Int("workers", 0, "worker pool size (default GOMAXPROCS)")
	integrator := flag.String("integrator", "euler", "thermal integrator: "+thermal.SchemeNames())
	scenarioFl := flag.String("scenario", "", "registered scenario for the sweep figures (default sdr-radio)")
	scenFile := flag.String("scenario-file", "", "declarative scenario spec JSON file for the sweep figures (mutually exclusive with -scenario)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runner := experiment.Runner{Workers: *workers}

	// The cross product over every registered scenario and policy is
	// opt-in: it is far larger than the paper's evaluation. -scenario
	// restricts it (comma list or 'all'), matching thermsim -matrix.
	if *only == "matrix" {
		if *scenFile != "" {
			log.Fatal("-scenario-file does not apply to -only matrix (matrix axes are registered names)")
		}
		cells, err := service.RunMatrix(ctx, runner, service.MatrixRequest{
			Scenarios: cliutil.MatrixAxis(*scenarioFl), Integrator: *integrator,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiment.FormatMatrix(cells))
		return
	}

	thermalCfg, err := cliutil.ParseIntegrator(*integrator)
	if err != nil {
		log.Fatal(err)
	}
	sc, sp, err := cliutil.ResolveScenarioArg(*scenarioFl, *scenFile)
	if err != nil {
		log.Fatal(err)
	}
	opt := experiment.Options{Runner: runner, Thermal: thermalCfg, Spec: sp}
	if sp == nil {
		opt.Scenario = sc.Name
	}

	want := func(key string) bool { return *only == "" || *only == key }

	if want("table1") {
		fmt.Print(experiment.FormatTable1())
		fmt.Println()
	}
	if want("table2") {
		rows, err := experiment.Table2(ctx, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiment.FormatTable2Rows(rows))
		fmt.Println()
	}
	if want("fig2") {
		rows, err := experiment.Fig2(ctx, opt, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiment.FormatFig2(rows))
		fmt.Println()
	}

	needMobile := want("fig7") || want("fig8") || want("fig11")
	needHP := want("fig9") || want("fig10") || want("fig11")
	var mob, hp []experiment.SweepPoint
	if needMobile {
		mob, err = experiment.Sweep(ctx, opt, experiment.Mobile, nil)
		if err != nil {
			log.Fatal(err)
		}
	}
	if needHP {
		hp, err = experiment.Sweep(ctx, opt, experiment.HighPerf, nil)
		if err != nil {
			log.Fatal(err)
		}
	}
	if want("fig7") {
		fmt.Print(experiment.FormatStdDevFigure("Figure 7", experiment.Mobile, mob, nil))
		fmt.Println()
	}
	if want("fig8") {
		fmt.Print(experiment.FormatMissFigure("Figure 8", experiment.Mobile, mob, nil))
		fmt.Println()
	}
	if want("fig9") {
		fmt.Print(experiment.FormatStdDevFigure("Figure 9", experiment.HighPerf, hp, nil))
		fmt.Println()
	}
	if want("fig10") {
		fmt.Print(experiment.FormatMissFigure("Figure 10", experiment.HighPerf, hp, nil))
		fmt.Println()
	}
	if want("fig11") {
		fmt.Print(experiment.FormatFig11(experiment.Fig11(mob, hp, nil)))
		fmt.Println()
	}

	if want("narrative") {
		if err := narrative(); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if want("ablations") {
		out, err := experiment.AllAblations(ctx, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
		fmt.Println()
	}

	if want("scale") {
		rows, err := experiment.Scale(ctx, opt, nil, 11)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiment.FormatScale(rows))
	}
}

// narrative reproduces the Section 5 prose claims: the 12.5 s warm-up
// gradient, balance within about a second, bounded overshoot, and the
// 64 KB-per-migration overhead arithmetic.
func narrative() error {
	fmt.Println("Section 5 narrative checks")

	// Warm-up gradient.
	res, eng, err := experiment.Run(experiment.RunConfig{
		PolicyName: "energy-balance", Package: experiment.Mobile, MeasureS: 0.1,
	})
	if err != nil {
		return err
	}
	t1 := eng.Platform().CoreTemp(0)
	t3 := eng.Platform().CoreTemp(2)
	fmt.Printf("  warm-up gradient after 12.5 s: %.1f °C between core1 (%.1f) and core3 (%.1f)\n",
		t1-t3, t1, t3)
	_ = res

	// Balancing transient with the operating threshold.
	resTB, engTB, err := experiment.Run(experiment.RunConfig{
		PolicyName: "thermal-balance", Delta: 3, Package: experiment.Mobile, MeasureS: 10, Trace: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  after balancing: mean gradient %.2f °C, %d misses, over-threshold time %.2f s\n",
		resTB.MeanGradient, resTB.DeadlineMisses, resTB.OverThresholdS)
	fmt.Printf("  migration overhead: %d migrations x 64 KB = %.0f KB over %.0f s (%.1f KB/s)\n",
		resTB.Migrations, resTB.MigratedBytes/1024, resTB.MeasuredS, resTB.BytesPerSec/1024)
	_ = engTB

	// Queue sizing: the paper's 11-frame minimum.
	for _, cap := range []int{5, 8, 11} {
		r, _, err := experiment.Run(experiment.RunConfig{
			PolicyName: "thermal-balance", Delta: 3, Package: experiment.Mobile,
			MeasureS: 15, QueueCap: cap,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  queue capacity %2d frames -> %d deadline misses\n", cap, r.DeadlineMisses)
	}
	return nil
}
