// Command sweep runs the paper's threshold sweep (Figures 7-11) for one
// or both thermal packages and prints the resulting series. The swept
// workload is any registered scenario (-scenario, default the paper's
// SDR radio).
//
// Usage:
//
//	sweep                        # both packages, thresholds 2..5
//	sweep -package mobile        # one package
//	sweep -deltas 2,3,4,5,6      # custom thresholds
//	sweep -scenario pipeline-d8  # sweep a synthetic scenario
//	sweep -scenario-file my.json # sweep a declarative scenario spec
//	sweep -workers 8             # spread the runs over 8 workers
//	sweep -integrator expm       # exact thermal integration
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
	"thermbal/internal/thermal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		pkgName    = flag.String("package", "both", "mobile | highperf | both")
		deltaStr   = flag.String("deltas", "", "comma-separated thresholds (default 2,3,4,5)")
		scenarioFl = flag.String("scenario", "", "registered scenario to sweep (default sdr-radio)")
		scenFile   = flag.String("scenario-file", "", "declarative scenario spec JSON file (mutually exclusive with -scenario)")
		workers    = flag.Int("workers", 0, "worker pool size (default GOMAXPROCS)")
		integrator = flag.String("integrator", "euler", "thermal integrator: "+thermal.SchemeNames())
	)
	flag.Parse()

	deltas, err := cliutil.ParseDeltas(*deltaStr)
	if err != nil {
		log.Fatal(err)
	}
	thermalCfg, err := cliutil.ParseIntegrator(*integrator)
	if err != nil {
		log.Fatal(err)
	}
	sc, sp, err := cliutil.ResolveScenarioArg(*scenarioFl, *scenFile)
	if err != nil {
		log.Fatal(err)
	}
	opt := experiment.Options{
		Runner:  experiment.Runner{Workers: *workers},
		Thermal: thermalCfg,
		Spec:    sp,
	}
	if sp == nil {
		opt.Scenario = sc.Name
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	wantMobile := *pkgName == "both" || *pkgName == "mobile"
	wantHP := *pkgName == "both" || *pkgName == "highperf" || *pkgName == "hp"
	if !wantMobile && !wantHP {
		log.Fatalf("unknown package %q", *pkgName)
	}

	if *scenarioFl != "" || *scenFile != "" {
		fmt.Printf("scenario: %s (%s)\n\n", sc.Name, sc.Topology)
	}
	var mob, hp []experiment.SweepPoint
	if wantMobile {
		mob, err = experiment.Sweep(ctx, opt, experiment.Mobile, deltas)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiment.FormatStdDevFigure("Figure 7", experiment.Mobile, mob, deltas))
		fmt.Println()
		fmt.Print(experiment.FormatMissFigure("Figure 8", experiment.Mobile, mob, deltas))
		fmt.Println()
	}
	if wantHP {
		hp, err = experiment.Sweep(ctx, opt, experiment.HighPerf, deltas)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiment.FormatStdDevFigure("Figure 9", experiment.HighPerf, hp, deltas))
		fmt.Println()
		fmt.Print(experiment.FormatMissFigure("Figure 10", experiment.HighPerf, hp, deltas))
		fmt.Println()
	}
	if wantMobile && wantHP {
		fmt.Print(experiment.FormatFig11(experiment.Fig11(mob, hp, deltas)))
	}
}
