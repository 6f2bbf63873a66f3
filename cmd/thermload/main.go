// Command thermload is the open-loop load generator for thermservd: it
// fires fixed-rate arrivals from a declarative request mix with
// Zipf-skewed key repetition, measures p50/p95/p99 per endpoint and per
// X-Timing stage plus shed/quota/error rates, and emits both a human
// table and the schema-versioned LOAD_<date>.json document, a
// host-stamped record of one run (make load-json). Performance changes
// are judged by the end-to-end benchmark's paired runs (make bench-ab).
//
// Usage:
//
//	thermload -addr http://localhost:8080 -rps 50 -duration 30s
//	thermload -addr ... -mix mix.json -tenant team-a -out .
//	                                 # -out a directory: writes
//	                                 # LOAD_<date>.json into it
//	thermload -self                  # smoke mode: start an in-process
//	                                 # server on an ephemeral port, run
//	                                 # a short load against it, and
//	                                 # fail unless the report parses,
//	                                 # quantiles are nonzero, and no
//	                                 # unexpected errors occurred
//
// Open-loop means arrivals are scheduled by the clock, not by response
// completion: when the server saturates, latency grows and is measured
// rather than silently throttling the offered load. A -max-inflight
// client-side cap (default 4x rps) bounds the damage of a wedged
// server; skipped arrivals are reported, never hidden.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"thermbal/internal/loadgen"
	"thermbal/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("thermload: ")

	var (
		addr        = flag.String("addr", "", "target server base URL, e.g. http://localhost:8080")
		rps         = flag.Float64("rps", 50, "open-loop arrival rate in requests/second")
		warmup      = flag.Duration("warmup", 2*time.Second, "warmup window: arrivals sent but excluded from the report")
		duration    = flag.Duration("duration", 10*time.Second, "measurement window after warmup")
		mixPath     = flag.String("mix", "", "request-mix JSON file (default: built-in run-dominated mix)")
		seed        = flag.Int64("seed", 1, "random seed for the arrival schedule's mix and key draws")
		maxInflight = flag.Int("max-inflight", 0, "client-side cap on outstanding requests (default 4x rps, min 64)")
		tenant      = flag.String("tenant", "", "X-Tenant header stamped on every request (quota accounting)")
		out         = flag.String("out", "", "write the JSON report here (a directory gets LOAD_<date>.json inside it)")
		self        = flag.Bool("self", false, "smoke mode: run a short load against an in-process server and assert the report is sane")
	)
	flag.Parse()

	mix := loadgen.DefaultMix()
	if *mixPath != "" {
		b, err := os.ReadFile(*mixPath)
		if err != nil {
			log.Fatal(err)
		}
		mix = loadgen.Mix{}
		if err := json.Unmarshal(b, &mix); err != nil {
			log.Fatalf("parse %s: %v", *mixPath, err)
		}
	}

	cfg := loadgen.Config{
		BaseURL:     strings.TrimSuffix(*addr, "/"),
		RPS:         *rps,
		Warmup:      *warmup,
		Duration:    *duration,
		Mix:         mix,
		Seed:        *seed,
		MaxInflight: *maxInflight,
		Tenant:      *tenant,
		Logf:        log.Printf,
	}

	if *self {
		if err := runSelf(cfg, *out); err != nil {
			log.Fatalf("self: FAIL: %v", err)
		}
		log.Print("self: PASS")
		return
	}

	if cfg.BaseURL == "" {
		log.Fatal("either -addr or -self is required")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Table())
	if err := writeReport(rep, *out); err != nil {
		log.Fatal(err)
	}
}

// writeReport writes the JSON document when -out is given.
func writeReport(rep *loadgen.Report, out string) error {
	if out == "" {
		return nil
	}
	if info, err := os.Stat(out); err == nil && info.IsDir() {
		out = filepath.Join(out, rep.Filename())
	}
	b, err := rep.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	log.Printf("report written to %s", out)
	return nil
}

// runSelf is the `make smoke-load` body: an in-process server on an
// ephemeral port, a short open-loop run against it, and assertions
// that the measurement loop itself works — the report parses under its
// schema gate, quantiles are nonzero, the cache tiers were exercised,
// and nothing errored unexpectedly.
func runSelf(cfg loadgen.Config, out string) error {
	svc := service.New(service.Config{})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	cfg.BaseURL = "http://" + ln.Addr().String()
	// Short but real: enough arrivals for stable quantiles, small
	// enough to keep `make check` fast.
	cfg.RPS = 40
	cfg.Warmup = time.Second
	cfg.Duration = 3 * time.Second
	log.Printf("self: in-process server on %s", cfg.BaseURL)

	rep, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Print(rep.Table())

	// The report must survive its own schema gate.
	b, err := rep.Encode()
	if err != nil {
		return err
	}
	back, err := loadgen.DecodeReport(b)
	if err != nil {
		return fmt.Errorf("report does not round-trip: %w", err)
	}
	if back.Measured == 0 {
		return fmt.Errorf("no measured samples")
	}
	run := rep.Endpoints["run"]
	if run == nil || run.Count == 0 {
		return fmt.Errorf("no /run samples in the report")
	}
	if run.Latency.P50Ms <= 0 || run.Latency.P99Ms <= 0 {
		return fmt.Errorf("run quantiles are zero: %+v", run.Latency)
	}
	for name, ep := range rep.Endpoints {
		if ep.Errors > 0 {
			return fmt.Errorf("%d unexpected errors on %s", ep.Errors, name)
		}
		if ep.Shed > 0 || ep.Quota > 0 {
			return fmt.Errorf("%s reports shed %d / quota %d against an unloaded default config", name, ep.Shed, ep.Quota)
		}
	}
	if rep.Outcomes["hit"] == 0 {
		return fmt.Errorf("outcomes %v: the Zipf skew produced no cache hits", rep.Outcomes)
	}
	if len(rep.Stages) == 0 {
		return fmt.Errorf("no per-stage quantiles parsed from X-Timing")
	}
	log.Printf("self: report sane (%d measured, run p99 %.2f ms, %d cache hits)",
		rep.Measured, run.Latency.P99Ms, rep.Outcomes["hit"])
	return writeReport(rep, out)
}
