// Command thermsim runs thermal-management experiments on the emulated
// streaming MPSoC: one (scenario, policy) run with a full report, a
// side-by-side policy comparison, or the whole scenario × policy matrix.
// Scenarios and policies are resolved by name through their catalogues;
// -list prints both.
//
// Usage:
//
//	thermsim -list                                   # discovery
//	thermsim -scenario sdr-radio -policy thermal-balance -delta 3
//	thermsim -scenario pipeline-d8 -policy all       # compare every policy
//	thermsim -matrix                                 # full cross product
//	thermsim -matrix -scenario sdr-radio,fanout-w4 -policy eb,tb
//	thermsim -policy stop-go -delta 2 -package highperf -measure 30
//	thermsim -policy thermal-balance -trace run.csv -events ev.csv
//	thermsim -policy tb -delta 3 -json      # the service's /run document
//	thermsim -scenario-file custom.json -policy tb   # declarative spec file
//	thermsim -scenario video-decoder -dump-spec      # export a builtin as a spec
//	thermsim -scenario manycore-64 -profile          # engine work counters
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"thermbal/internal/cliutil"
	"thermbal/internal/experiment"
	"thermbal/internal/migrate"
	"thermbal/internal/policy"
	"thermbal/internal/request"
	"thermbal/internal/scenario"
	"thermbal/internal/thermal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("thermsim: ")

	var (
		list       = flag.Bool("list", false, "list registered scenarios and policies, then exit")
		matrix     = flag.Bool("matrix", false, "run the scenario x policy cross product")
		scenarioFl = flag.String("scenario", "", "scenario name (default sdr-radio; comma list or 'all' with -matrix)")
		scenFile   = flag.String("scenario-file", "", "declarative scenario spec JSON file (mutually exclusive with -scenario)")
		dumpSpec   = flag.Bool("dump-spec", false, "print the selected scenario's declarative spec as JSON and exit")
		policyName = flag.String("policy", "", "policy name or alias, 'all' to compare every registered policy (default: the scenario's)")
		delta      = flag.Float64("delta", 0, "threshold distance from mean temperature in °C (default: the scenario's)")
		pkgName    = flag.String("package", "mobile", "thermal package: mobile | highperf")
		warmup     = flag.Float64("warmup", 0, "warm-up before the policy engages (s; default: the scenario's)")
		measure    = flag.Float64("measure", 0, "measurement window (s; default: the scenario's)")
		queueCap   = flag.Int("queue", 0, "inter-task queue capacity in frames (default: the scenario's)")
		recreate   = flag.Bool("recreation", false, "use task-recreation instead of task-replication")
		integrator = flag.String("integrator", "euler", "thermal integrator: "+thermal.SchemeNames())
		workers    = flag.Int("workers", 0, "worker pool size for -policy all / -matrix (default GOMAXPROCS)")
		noFastPath = flag.Bool("no-fastpath", false, "disable the engine's event-horizon fast path (results are bit-for-bit identical; for A/B validation)")
		jsonOut    = flag.Bool("json", false, "emit the run as the versioned JSON schema document the service serves (single run only)")
		traceOut   = flag.String("trace", "", "write the temperature/frequency timeline CSV to this file")
		eventsOut  = flag.String("events", "", "write the event log CSV to this file")
		profile    = flag.Bool("profile", false, "print the engine's work counters (ticks, macro-steps, horizon scans, core steps); with -json they go to stderr")
	)
	flag.Parse()

	if *list {
		fmt.Print(cliutil.ListText())
		return
	}

	if *dumpSpec {
		sc, err := cliutil.ResolveScenarioArg(*scenarioFl, *scenFile)
		if err != nil {
			log.Fatal(err)
		}
		out, err := cliutil.SpecJSON(sc)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(out)
		return
	}

	runner := experiment.Runner{Workers: *workers}
	mech := ""
	if *recreate {
		mech = migrate.Recreation.String()
	}

	if *matrix {
		if *traceOut != "" || *eventsOut != "" {
			log.Fatal("-trace/-events require a single run, not -matrix")
		}
		if *scenFile != "" {
			log.Fatal("-scenario-file requires a single run, not -matrix (matrix axes are registered names)")
		}
		if *jsonOut || *noFastPath || *profile {
			log.Fatal("-json/-no-fastpath/-profile require a single run, not -matrix")
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		cells, err := request.RunMatrix(ctx, runner, request.MatrixRequest{
			Scenarios: cliutil.MatrixAxis(*scenarioFl), Policies: cliutil.MatrixAxis(*policyName),
			Delta: *delta, Package: *pkgName, Mechanism: mech, Integrator: *integrator,
			WarmupS: *warmup, MeasureS: *measure, QueueCap: *queueCap,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiment.FormatMatrix(cells))
		return
	}

	// Every single-scenario mode resolves this one request through
	// request.Canonicalize, the same as the service's /run: equal flags
	// mean equal runs whichever mode reports them.
	req := request.Request{
		Scenario: *scenarioFl, Policy: *policyName, Delta: *delta,
		Package: *pkgName, WarmupS: *warmup, MeasureS: *measure,
		QueueCap: *queueCap, Mechanism: mech, Integrator: *integrator,
	}
	// A name resolves here first, not only in Canonicalize, so that a
	// file path passed to -scenario gets the CLI's -scenario-file hint.
	// A spec file is only decoded here: Canonicalize normalizes it, once.
	var err error
	if req.Spec, err = cliutil.SpecArg(*scenarioFl, *scenFile); err != nil {
		log.Fatal(err)
	}
	trace := *traceOut != "" || *eventsOut != ""
	if *policyName == "all" {
		if *jsonOut || *noFastPath || *profile {
			log.Fatal("-json/-no-fastpath/-profile require a single policy")
		}
		if trace {
			log.Fatal("-trace/-events require a single policy")
		}
		comparePolicies(runner, req, *scenFile)
		return
	}
	canon, rc := canonicalize(req, *scenFile)
	// Tracing and the fast-path switch are execution-only: results are
	// bit-for-bit identical either way, so they are not part of the
	// request identity and A/B runs emit the same document.
	rc.Trace = trace
	rc.NoFastPath = *noFastPath

	if *jsonOut && trace {
		log.Fatal("-json cannot be combined with -trace/-events")
	}
	res, eng, err := experiment.Run(rc)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		// One encoder, two consumers: for equal configurations the
		// emitted bytes equal the service's /run response body.
		body, err := request.EncodeDoc(request.NewRunDoc(canon, res))
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(body)
		if *profile {
			fmt.Fprint(os.Stderr, eng.Profile())
		}
		return
	}

	sc := reportScenario(rc)
	fmt.Printf("scenario         %s (%s)\n", cliutil.ScenarioName(sc), sc.Topology)
	fmt.Printf("policy           %s\n", res.PolicyName)
	fmt.Printf("package          %s\n", canon.Package)
	fmt.Printf("threshold        ±%.1f °C around the mean\n", canon.Delta)
	fmt.Printf("window           %.1f s\n", res.MeasuredS)
	fmt.Println()
	fmt.Printf("temperature std  %.3f °C pooled (spatial %.3f, temporal %.3f)\n",
		res.PooledStdDev, res.SpatialStdDev, res.MeanTemporalStdDev)
	fmt.Printf("mean gradient    %.2f °C (hottest-coolest)\n", res.MeanGradient)
	fmt.Printf("max temperature  %.2f °C\n", res.MaxTemp)
	fmt.Println()
	fmt.Printf("deadline misses  %d of %d deadlines (%.2f%%)\n",
		res.DeadlineMisses, res.DeadlineMisses+res.FramesConsumed, res.MissRatePct)
	fmt.Printf("migrations       %d (%.2f/s, %.1f KB/s, mean freeze %.1f ms)\n",
		res.Migrations, res.MigrationsPerSec, res.BytesPerSec/1024, res.MeanFreezeS*1e3)
	fmt.Printf("energy           %.3f J total\n", res.TotalEnergyJ)
	fmt.Printf("DVFS switches    %d\n", res.DVFSSwitches)
	if res.OverThresholdS > 0 {
		fmt.Printf("over threshold   %.2f s total above mean+delta\n", res.OverThresholdS)
	}

	for c := 0; c < eng.Platform().NumCores(); c++ {
		fmt.Printf("core%d            %.2f °C @ %.0f MHz\n",
			c+1, eng.Platform().CoreTemp(c), eng.Platform().Frequency(c)/1e6)
	}
	if *profile {
		fmt.Printf("\n%s", eng.Profile())
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := eng.Recorder().WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		dropped, _ := eng.Recorder().Dropped()
		fmt.Printf("trace written    %s (%d samples%s)\n", *traceOut, len(eng.Recorder().Samples()),
			droppedNote(dropped, "samples"))
	}
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := eng.Recorder().WriteEventsCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		_, dropped := eng.Recorder().Dropped()
		fmt.Printf("events written   %s (%d events%s)\n", *eventsOut, len(eng.Recorder().Events()),
			droppedNote(dropped, "events"))
	}
}

// droppedNote says how many later samples or events the recorder's cap
// discarded, so a truncated file is not mistaken for the whole run; it
// is empty when none were.
func droppedNote(n int, what string) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("; %d later %s dropped at the recorder's cap, so the file stops early", n, what)
}

// canonicalize resolves req, exiting on an error; a spec's validation
// failure names specFile, the file it was read from.
func canonicalize(req request.Request, specFile string) (request.Request, experiment.RunConfig) {
	canon, rc, err := request.Canonicalize(req)
	if se := (*scenario.SpecError)(nil); errors.As(err, &se) {
		log.Fatalf("scenario spec %s: %v", specFile, err)
	}
	if err != nil {
		log.Fatal(err)
	}
	return canon, rc
}

// reportScenario is the scenario a report header names: a spec run's
// own, or the catalogue entry of a named or builtin-equal request.
func reportScenario(rc experiment.RunConfig) scenario.Scenario {
	if rc.Resolved != nil {
		return *rc.Resolved
	}
	sc, _ := scenario.Lookup(rc.Scenario) // Canonicalize found it
	return sc
}

// comparePolicies runs every registered policy on req's scenario and
// configuration across the worker pool and prints a side-by-side
// summary. req is canonicalized once; each run differs from it only in
// its policy.
func comparePolicies(runner experiment.Runner, req request.Request, specFile string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	policies := policy.Names()
	req.Policy = policies[0]
	canon, rc := canonicalize(req, specFile)
	cfgs := make([]experiment.RunConfig, len(policies))
	for i, pol := range policies {
		cfgs[i] = rc
		cfgs[i].PolicyName = pol
	}
	results, err := experiment.RunAll(ctx, runner, cfgs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %s, package %s, threshold ±%.1f °C, integrator %s\n\n",
		cliutil.ScenarioName(reportScenario(rc)), canon.Package, canon.Delta, canon.Integrator)
	fmt.Println("policy           std[°C]  spatial  misses  rate%   migr  mig/s  energy[J]")
	for i, pol := range policies {
		r := results[i]
		fmt.Printf("%-16s %7.3f  %7.3f  %6d  %5.2f  %5d  %5.2f  %9.3f\n",
			pol, r.PooledStdDev, r.SpatialStdDev, r.DeadlineMisses, r.MissRatePct,
			r.Migrations, r.MigrationsPerSec, r.TotalEnergyJ)
	}
}
