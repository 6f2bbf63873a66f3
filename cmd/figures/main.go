// Command figures regenerates the paper's evaluation section: Tables
// 1-2, Figures 2 and 7-11, the Section 5 narrative checks, the
// ablations and the many-core scale study, in that order. -only
// restricts it to a comma list of those artifacts; -deltas, -scenario
// and -scenario-file shape the Figure 7-11 threshold sweeps.
//
// Usage:
//
//	figures                        # everything (a few seconds)
//	figures -only fig7             # a single figure
//	figures -only fig7,fig8        # the mobile package's sweep
//	figures -only fig9,fig10 -deltas 2,3,4,5,6
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
	"strings"

	"thermbal/internal/cliutil"
	"thermbal/internal/experiment"
	"thermbal/internal/thermal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var (
		only       = flag.String("only", "", "comma list of "+strings.Join(experiment.Artifacts, "|")+" (empty = all)")
		workers    = flag.Int("workers", 0, "worker pool size (default GOMAXPROCS)")
		integrator = flag.String("integrator", "euler", "thermal integrator: "+thermal.SchemeNames())
		scenarioFl = flag.String("scenario", "", "registered scenario for the sweep figures (default sdr-radio)")
		scenFile   = flag.String("scenario-file", "", "declarative scenario spec JSON file for the sweep figures (mutually exclusive with -scenario)")
		deltaStr   = flag.String("deltas", "", "comma-separated thresholds for the sweep figures (default 2,3,4,5)")
	)
	flag.Parse()

	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	deltas, err := cliutil.ParseDeltas(*deltaStr)
	if err != nil {
		log.Fatal(err)
	}
	scheme, err := thermal.ParseScheme(*integrator)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := cliutil.ResolveScenarioArg(*scenarioFl, *scenFile)
	if err != nil {
		log.Fatal(err)
	}
	opt := experiment.Options{Runner: experiment.Runner{Workers: *workers}, Thermal: thermal.Config{Scheme: scheme}, Scenario: &sc}
	if *scenarioFl != "" || *scenFile != "" {
		fmt.Printf("scenario: %s (%s)\n\n", cliutil.ScenarioName(sc), sc.Topology)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := experiment.WriteArtifacts(ctx, os.Stdout, opt, names, deltas); err != nil {
		log.Fatal(err)
	}
}
