// Command thermservd serves thermal-balancing simulations over
// HTTP/JSON: a long-running job server with a content-addressed result
// cache, request coalescing and an optional durable result store on
// top of the deterministic experiment engine (see internal/service and
// internal/store).
//
// Usage:
//
//	thermservd                       # serve on :8080, memory-only
//	thermservd -data-dir /var/lib/thermbal
//	                                 # durable store: results survive
//	                                 # restarts, sweeps resume
//	thermservd -addr 127.0.0.1:0     # ephemeral port (printed on start)
//	thermservd -cache 2048 -job-workers 4 -queue-depth 128
//	thermservd -timing-log timings.csv
//	                                 # append one CSV timing record per
//	                                 # /run//matrix request
//
// Endpoints: GET /scenarios, GET /policies, POST /run, POST /matrix,
// POST/GET /jobs, GET|DELETE /jobs/{id}, GET /proof, POST /seal,
// GET /metrics, GET /healthz. /run and /matrix responses
// carry an X-Timing header (compact stage=µs pairs) and an
// X-Content-Key header (the content address to pass to /proof). The
// server shuts down gracefully on SIGINT/SIGTERM.
//
// Non-finite -max-sync, -max-pending-sim-s, -quota-rps and -quota-burst
// values are refused with exit status 2. The daemon is flag parsing
// plus wiring; the behaviour it serves is tested in internal/service
// against a loopback server (cache byte-identity and X-Timing, every
// counter on /metrics, kill-and-restart store hits, inclusion proofs)
// and in cmd/thermproof (offline verification and its exit statuses).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/obs"
	"thermbal/internal/policy"
	"thermbal/internal/request"
	"thermbal/internal/scenario"
	"thermbal/internal/service"
	"thermbal/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("thermservd: ")
	opts, code := parseFlags(os.Args[1:], os.Stderr)
	if opts == nil {
		os.Exit(code)
	}
	cfg := opts.cfg

	if opts.timingLog != "" {
		f, err := os.OpenFile(opts.timingLog, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			log.Fatal(err)
		}
		// Write the column header only on a fresh file; appending to an
		// existing log must not interleave a second header mid-stream.
		cfg.TimingLog = obs.NewCSVLogger(f, info.Size() == 0)
		log.Printf("timing log: %s", opts.timingLog)
	}

	if opts.dataDir != "" {
		st, err := store.Open(opts.dataDir, store.Options{
			MaxBytes:     opts.storeMax,
			SegmentBytes: opts.storeSeg,
			Pinned:       request.JournalPinned,
			Version:      experiment.EngineVersion,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		cfg.Store = st
		sst := st.Stats()
		log.Printf("store: %s (%d records, %d segments, %d bytes)", opts.dataDir, sst.Records, sst.Segments, sst.Bytes)
		if sst.ChainLen > 0 {
			// The chain head is the one value worth pinning out-of-band:
			// a verifier holding it can detect manifest truncation.
			log.Printf("store: provenance chain %d roots, head %s", sst.ChainLen, sst.ChainHead)
		}
		if sst.TailTruncated > 0 || sst.CorruptSegments > 0 {
			log.Printf("store: recovered from unclean shutdown (%d tail bytes truncated, %d segments with corrupt records)",
				sst.TailTruncated, sst.CorruptSegments)
		}
	}

	svc := service.New(cfg)
	defer svc.Close()
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on http://%s", hostURL(ln.Addr()))
	log.Printf("serving %d scenarios x %d policies (GET /scenarios, /policies; POST /run, /matrix, /jobs)",
		len(scenario.Names()), len(policy.Names()))

	httpSrv := &http.Server{Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}

// options is thermservd's parsed command line: the service
// configuration plus what main wires around it.
type options struct {
	cfg                      service.Config
	addr, dataDir, timingLog string
	storeMax, storeSeg       int64
}

// parseFlags parses args. When the program must stop instead of
// serving — -help, a malformed flag, a non-finite float — it reports on
// stderr and returns nil with the exit status (0 for -help, else 2).
func parseFlags(args []string, stderr io.Writer) (*options, int) {
	fs := flag.NewFlagSet("thermservd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.addr, "addr", ":8080", "listen address (use 127.0.0.1:0 for an ephemeral port)")
	fs.IntVar(&o.cfg.CacheEntries, "cache", 0, "result-cache capacity in bodies (default 512)")
	fs.IntVar(&o.cfg.JobWorkers, "job-workers", 0, "async job workers (default GOMAXPROCS)")
	fs.IntVar(&o.cfg.QueueDepth, "queue-depth", 0, "pending-job queue bound (default 64)")
	fs.IntVar(&o.cfg.JobRetention, "job-retention", 0, "finished jobs kept pollable before pruning (default 256)")
	fs.IntVar(&o.cfg.MaxSims, "max-sims", 0, "concurrent simulation executions across all endpoints (default 2xGOMAXPROCS)")
	fs.Float64Var(&o.cfg.MaxSyncSimS, "max-sync", 0, "max simulated seconds a synchronous /run accepts (default 600)")
	fs.Float64Var(&o.cfg.MaxPendingSimS, "max-pending-sim-s", 0, "pending simulated-seconds budget before load shedding with 503 + Retry-After (default 20x max-sync; negative: unbounded)")
	fs.Float64Var(&o.cfg.QuotaRPS, "quota-rps", 0, "per-tenant request quota in requests/second on /run, /matrix and POST /jobs; 0 disables quotas")
	fs.Float64Var(&o.cfg.QuotaBurst, "quota-burst", 0, "per-tenant burst allowance in requests (default 2x quota-rps, min 1)")
	fs.StringVar(&o.cfg.TenantHeader, "tenant-header", "", "header naming the tenant for quota accounting (default X-Tenant; absent header falls back to the remote IP)")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable result-store directory (empty: memory-only; results and job resumability are lost on restart)")
	fs.Int64Var(&o.storeMax, "store-max-bytes", 0, "on-disk store size budget in bytes; exceeding it compacts the log and evicts the oldest results (default 256 MiB)")
	fs.Int64Var(&o.storeSeg, "store-segment-bytes", 0, "segment rotation threshold in bytes; each rotation seals the filled segment under a Merkle root (default 8 MiB)")
	fs.StringVar(&o.timingLog, "timing-log", "", "append one CSV timing record per /run and /matrix request to this file (header written when the file is new)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2
	}
	// Every comparison against NaN is false, so a NaN bound would
	// silently disable the limit it names instead of setting it.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"max-sync", o.cfg.MaxSyncSimS},
		{"max-pending-sim-s", o.cfg.MaxPendingSimS},
		{"quota-rps", o.cfg.QuotaRPS},
		{"quota-burst", o.cfg.QuotaBurst},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			fmt.Fprintf(stderr, "thermservd: -%s must be a finite number, got %g\n", f.name, f.v)
			return nil, 2
		}
	}
	return &o, 0
}

// hostURL renders a listener address as something curl-able
// (":8080" and unspecified hosts become localhost).
func hostURL(a net.Addr) string {
	s := a.String()
	if host, port, err := net.SplitHostPort(s); err == nil {
		if host == "" || host == "::" || host == "0.0.0.0" {
			return net.JoinHostPort("localhost", port)
		}
	}
	return s
}
