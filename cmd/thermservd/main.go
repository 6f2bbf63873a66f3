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
// GET /stats, GET /metrics, GET /healthz. /run and /matrix responses
// carry an X-Timing header (compact stage=µs pairs) and an
// X-Content-Key header (the content address to pass to /proof). The
// server shuts down gracefully on SIGINT/SIGTERM.
//
// The daemon is flag parsing plus wiring; the behaviour it serves is
// tested in internal/service against a loopback server (cache
// byte-identity and X-Timing, /metrics against /stats, kill-and-restart
// store hits, inclusion proofs) and in cmd/thermproof (offline
// verification and its exit statuses).
package main

import (
	"context"
	"flag"
	"log"
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

	var (
		addr       = flag.String("addr", ":8080", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		cacheSize  = flag.Int("cache", 0, "result-cache capacity in bodies (default 512)")
		jobWorkers = flag.Int("job-workers", 0, "async job workers (default GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 0, "pending-job queue bound (default 64)")
		jobRetain  = flag.Int("job-retention", 0, "finished jobs kept pollable before pruning (default 256)")
		maxSims    = flag.Int("max-sims", 0, "concurrent simulation executions across all endpoints (default 2xGOMAXPROCS)")
		maxSync    = flag.Float64("max-sync", 0, "max simulated seconds a synchronous /run accepts (default 600)")
		maxPending = flag.Float64("max-pending-sim-s", 0, "pending simulated-seconds budget before load shedding with 503 + Retry-After (default 20x max-sync; negative: unbounded)")
		quotaRPS   = flag.Float64("quota-rps", 0, "per-tenant request quota in requests/second on /run, /matrix and POST /jobs; 0 disables quotas")
		quotaBurst = flag.Float64("quota-burst", 0, "per-tenant burst allowance in requests (default 2x quota-rps, min 1)")
		tenantHdr  = flag.String("tenant-header", "", "header naming the tenant for quota accounting (default X-Tenant; absent header falls back to the remote IP)")
		dataDir    = flag.String("data-dir", "", "durable result-store directory (empty: memory-only; results and job resumability are lost on restart)")
		storeMax   = flag.Int64("store-max-bytes", 0, "on-disk store size budget in bytes; exceeding it compacts the log and evicts the oldest results (default 256 MiB)")
		storeSeg   = flag.Int64("store-segment-bytes", 0, "segment rotation threshold in bytes; each rotation seals the filled segment under a Merkle root (default 8 MiB)")
		timingLog  = flag.String("timing-log", "", "append one CSV timing record per /run and /matrix request to this file (header written when the file is new)")
	)
	flag.Parse()

	cfg := service.Config{
		CacheEntries:   *cacheSize,
		JobWorkers:     *jobWorkers,
		QueueDepth:     *queueDepth,
		JobRetention:   *jobRetain,
		MaxSims:        *maxSims,
		MaxSyncSimS:    *maxSync,
		MaxPendingSimS: *maxPending,
		QuotaRPS:       *quotaRPS,
		QuotaBurst:     *quotaBurst,
		TenantHeader:   *tenantHdr,
	}

	if *timingLog != "" {
		f, err := os.OpenFile(*timingLog, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
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
		log.Printf("timing log: %s", *timingLog)
	}

	if *dataDir != "" {
		st, err := store.Open(*dataDir, store.Options{
			MaxBytes:     *storeMax,
			SegmentBytes: *storeSeg,
			Pinned:       request.JournalPinned,
			Version:      experiment.EngineVersion,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		cfg.Store = st
		sst := st.Stats()
		log.Printf("store: %s (%d records, %d segments, %d bytes)", *dataDir, sst.Records, sst.Segments, sst.Bytes)
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
	ln, err := net.Listen("tcp", *addr)
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
