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
//	thermservd -smoke                # self-check: start on an ephemeral
//	                                 # port, exercise /scenarios, a
//	                                 # cached-vs-fresh /run pair (with
//	                                 # X-Timing parsing), the /metrics
//	                                 # surface against /stats, and a
//	                                 # kill + restart-and-rehit pass on
//	                                 # a durable store; exit 0/1
//	thermservd -smoke-proof DIR      # provenance self-check: populate a
//	                                 # store under DIR over HTTP, seal
//	                                 # it, verify inclusion proofs
//	                                 # across a restart, and leave
//	                                 # artifacts (data/, a tampered
//	                                 # copy, proof.json) for offline
//	                                 # verification with cmd/thermproof
//
// Endpoints: GET /scenarios, GET /policies, POST /run, POST /matrix,
// POST/GET /jobs, GET|DELETE /jobs/{id}, GET /proof, POST /seal,
// GET /stats, GET /metrics, GET /healthz. /run and /matrix responses
// carry an X-Timing header (compact stage=µs pairs) and an
// X-Content-Key header (the content address to pass to /proof). The
// server shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/obs"
	"thermbal/internal/policy"
	"thermbal/internal/provenance"
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
		smoke      = flag.Bool("smoke", false, "run the self-check against an ephemeral instance and exit")
		smokeProof = flag.String("smoke-proof", "", "run the provenance self-check, leaving verification artifacts under this directory, and exit")
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

	if *smoke {
		if err := runSmoke(cfg); err != nil {
			log.Fatalf("smoke: FAIL: %v", err)
		}
		log.Print("smoke: PASS")
		return
	}

	if *smokeProof != "" {
		if err := runSmokeProof(cfg, *smokeProof); err != nil {
			log.Fatalf("smoke-proof: FAIL: %v", err)
		}
		log.Print("smoke-proof: PASS")
		return
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
			Pinned:       service.JournalPinned,
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

// smokeInstance is one ephemeral server under smoke test.
type smokeInstance struct {
	svc  *service.Server
	http *http.Server
	base string
}

func startInstance(cfg service.Config) (*smokeInstance, error) {
	svc := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	inst := &smokeInstance{
		svc:  svc,
		http: &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(),
	}
	go inst.http.Serve(ln)
	return inst, nil
}

// shutdown stops the instance gracefully (kill-equivalence for the
// store comes from never syncing or closing it, which the restart
// pass arranges separately).
func (i *smokeInstance) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := i.http.Shutdown(ctx)
	i.svc.Close()
	return err
}

func (i *smokeInstance) get(path string) ([]byte, error) {
	resp, err := http.Get(i.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, b)
	}
	return b, nil
}

// getStatus is get without the 200-only policy: the proof pass needs
// to assert specific refusal codes (409 before a seal).
func (i *smokeInstance) getStatus(path string) (int, []byte, error) {
	resp, err := http.Get(i.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

func (i *smokeInstance) post(path, body string) ([]byte, http.Header, error) {
	resp, err := http.Post(i.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, nil, fmt.Errorf("POST %s: %d: %s", path, resp.StatusCode, b)
	}
	return b, resp.Header, nil
}

// checkTiming asserts a /run response's X-Timing header parses, names
// every stage plus total, and matches the executed-vs-cached shape:
// an executed (miss) response spent measurable time in the engine, a
// cached one must not claim any.
func checkTiming(h http.Header, wantExecuted bool) error {
	v := h.Get("X-Timing")
	if v == "" {
		return fmt.Errorf("X-Timing header absent")
	}
	pairs, err := obs.ParseHeaderValue(v)
	if err != nil {
		return fmt.Errorf("X-Timing %q: %w", v, err)
	}
	for _, name := range obs.StageNames {
		if _, ok := pairs[name]; !ok {
			return fmt.Errorf("X-Timing %q missing stage %q", v, name)
		}
	}
	total, ok := pairs["total"]
	if !ok {
		return fmt.Errorf("X-Timing %q missing total", v)
	}
	if total <= 0 {
		return fmt.Errorf("X-Timing %q: total %d µs, want > 0", v, total)
	}
	if wantExecuted && pairs["execute"] <= 0 {
		return fmt.Errorf("X-Timing %q: executed run reports %d µs in the engine", v, pairs["execute"])
	}
	if !wantExecuted && pairs["execute"] != 0 {
		return fmt.Errorf("X-Timing %q: cached run claims %d µs in the engine", v, pairs["execute"])
	}
	return nil
}

// metricValue extracts one series value from a Prometheus text
// exposition: the line starting `series value`.
func metricValue(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

func (i *smokeInstance) stats() (service.StatsDoc, error) {
	var stats service.StatsDoc
	b, err := i.get("/stats")
	if err != nil {
		return stats, err
	}
	if err := json.Unmarshal(b, &stats); err != nil {
		return stats, fmt.Errorf("decode /stats: %w", err)
	}
	return stats, nil
}

// waitJob polls /jobs/{id} until the job finishes.
func (i *smokeInstance) waitJob(id string) (service.JobStatus, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st service.JobStatus
		b, err := i.get("/jobs/" + id)
		if err != nil {
			return st, err
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return st, fmt.Errorf("decode job status: %w", err)
		}
		switch st.State {
		case service.JobDone:
			return st, nil
		case service.JobFailed, service.JobCancelled:
			return st, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runSmoke is the CI self-check, driven over real TCP against real
// instances on ephemeral ports: the catalogue endpoint, a cold /run
// with a byte-identical cached rerun, the stats counters, and then the
// persistence pass — populate a durable store via /run and a matrix
// job, stop without closing the store (a SIGKILL leaves exactly those
// files), restart on the same data dir and verify the re-request is a
// store hit with identical bytes and that the re-submitted sweep
// executes nothing.
func runSmoke(cfg service.Config) error {
	inst, err := startInstance(cfg)
	if err != nil {
		return err
	}
	defer inst.svc.Close()
	log.Printf("smoke: serving on %s", inst.base)

	b, err := inst.get("/scenarios")
	if err != nil {
		return err
	}
	var scDoc struct {
		Scenarios []scenario.Info `json:"scenarios"`
	}
	if err := json.Unmarshal(b, &scDoc); err != nil {
		return fmt.Errorf("decode /scenarios: %w", err)
	}
	if len(scDoc.Scenarios) == 0 {
		return fmt.Errorf("/scenarios returned an empty catalogue")
	}
	log.Printf("smoke: /scenarios ok (%d scenarios)", len(scDoc.Scenarios))

	const run = `{"scenario":"sdr-radio","policy":"tb","delta":3,"warmup_s":0.5,"measure_s":1}`
	cold, hdr, err := inst.post("/run", run)
	if err != nil {
		return err
	}
	if state := hdr.Get("X-Cache"); state != "miss" {
		return fmt.Errorf("cold /run X-Cache = %q, want miss", state)
	}
	if err := checkTiming(hdr, true); err != nil {
		return fmt.Errorf("cold /run: %w", err)
	}
	cached, hdr, err := inst.post("/run", run)
	if err != nil {
		return err
	}
	if state := hdr.Get("X-Cache"); state != "hit" {
		return fmt.Errorf("second /run X-Cache = %q, want hit", state)
	}
	if err := checkTiming(hdr, false); err != nil {
		return fmt.Errorf("cached /run: %w", err)
	}
	if !bytes.Equal(cold, cached) {
		return fmt.Errorf("cached /run body differs from the cold run")
	}
	log.Printf("smoke: /run cold-vs-cached ok (%d bytes, byte-identical, X-Timing parses on both)", len(cold))

	stats, err := inst.stats()
	if err != nil {
		return err
	}
	if stats.Executions != 1 || stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		return fmt.Errorf("/stats counters = executions %d, hits %d, misses %d; want 1, 1, 1",
			stats.Executions, stats.Cache.Hits, stats.Cache.Misses)
	}
	log.Printf("smoke: /stats ok (executions %d, hits %d, misses %d)", stats.Executions, stats.Cache.Hits, stats.Cache.Misses)

	if err := checkMetrics(inst, stats); err != nil {
		return err
	}

	if err := inst.shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Print("smoke: clean shutdown")

	return smokeRestart(cfg)
}

// checkMetrics scrapes /metrics after the run pair and fails unless
// the stage histograms are present and their counts reconcile with the
// /stats counters — the gate that keeps the metrics surface truthful.
func checkMetrics(inst *smokeInstance, stats service.StatsDoc) error {
	b, err := inst.get("/metrics")
	if err != nil {
		return err
	}
	text := string(b)
	// Every stage histogram family member must be present.
	for _, stage := range obs.StageNames {
		series := fmt.Sprintf("thermbal_stage_duration_seconds_count{stage=%q}", stage)
		if _, ok := metricValue(text, series); !ok {
			return fmt.Errorf("/metrics missing %s", series)
		}
	}
	// Counts must reconcile with /stats: one engine run means one
	// execute-stage observation, and the cache counters match the
	// outcome-labelled request counters.
	reconcile := []struct {
		series string
		want   float64
	}{
		{`thermbal_stage_duration_seconds_count{stage="execute"}`, float64(stats.Executions)},
		{`thermbal_executions_total`, float64(stats.Executions)},
		{`thermbal_requests_total{endpoint="run",outcome="miss"}`, float64(stats.Executions)},
		{`thermbal_requests_total{endpoint="run",outcome="hit"}`, float64(stats.Cache.Hits)},
		{`thermbal_cache_hits_total`, float64(stats.Cache.Hits)},
		{`thermbal_cache_misses_total`, float64(stats.Cache.Misses)},
	}
	for _, rc := range reconcile {
		got, ok := metricValue(text, rc.series)
		if !ok {
			return fmt.Errorf("/metrics missing %s", rc.series)
		}
		if got != rc.want {
			return fmt.Errorf("/metrics %s = %g, inconsistent with /stats %g", rc.series, got, rc.want)
		}
	}
	// The request-latency histogram must have observed both requests of
	// the pair, and /stats must report quantiles computed from it.
	pairCount, ok := metricValue(text, `thermbal_request_duration_seconds_count{endpoint="run",outcome="miss"}`)
	if !ok || pairCount != 1 {
		return fmt.Errorf("/metrics run/miss request histogram count = %g, want 1", pairCount)
	}
	if stats.Latency.Run.Count != 2 {
		return fmt.Errorf("/stats latency.run.count = %d, want 2 (fresh + cached)", stats.Latency.Run.Count)
	}
	if stats.Latency.Execute.Count != uint64(stats.Executions) {
		return fmt.Errorf("/stats latency.execute.count = %d, want %d", stats.Latency.Execute.Count, stats.Executions)
	}
	if stats.Latency.Execute.P50Ms <= 0 {
		return fmt.Errorf("/stats latency.execute.p50_ms = %g, want > 0", stats.Latency.Execute.P50Ms)
	}
	log.Printf("smoke: /metrics ok (stage histograms present, counts reconcile with /stats, run p95 %.2f ms)",
		stats.Latency.Run.P95Ms)
	return nil
}

// smokeRestart is the restart-and-rehit pass on a throwaway data dir.
func smokeRestart(cfg service.Config) error {
	dir, err := os.MkdirTemp("", "thermservd-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	openStore := func() (*store.Store, error) {
		return store.Open(dir, store.Options{
			Pinned:  service.JournalPinned,
			Version: experiment.EngineVersion,
		})
	}

	// First life: populate the store through /run and a matrix job.
	st1, err := openStore()
	if err != nil {
		return err
	}
	cfg1 := cfg
	cfg1.Store = st1
	inst, err := startInstance(cfg1)
	if err != nil {
		return err
	}
	const run = `{"scenario":"sdr-radio","policy":"tb","delta":3,"warmup_s":0.5,"measure_s":1}`
	const sweep = `{"matrix":{"scenarios":["sdr-radio"],"policies":["eb","tb"],"delta":3,"warmup_s":0.5,"measure_s":1}}`
	cold, hdr, err := inst.post("/run", run)
	if err != nil {
		return err
	}
	if state := hdr.Get("X-Cache"); state != "miss" {
		return fmt.Errorf("restart pass: cold /run X-Cache = %q, want miss", state)
	}
	b, _, err := inst.post("/jobs", sweep)
	if err != nil {
		return err
	}
	var submitted service.JobStatus
	if err := json.Unmarshal(b, &submitted); err != nil {
		return fmt.Errorf("decode job submit: %w", err)
	}
	jobDone, err := inst.waitJob(submitted.ID)
	if err != nil {
		return err
	}
	if p := jobDone.Progress; p == nil || p.CompletedCells != 2 {
		return fmt.Errorf("restart pass: sweep progress = %+v, want 2 completed cells", jobDone.Progress)
	}
	// Stop the HTTP server but deliberately abandon the store — no
	// Close, no fsync. The directory now holds exactly what a SIGKILL
	// would have left behind.
	if err := inst.shutdown(); err != nil {
		return fmt.Errorf("restart pass: first shutdown: %w", err)
	}
	log.Printf("smoke: store populated (/run + 2-cell sweep), first instance stopped without closing it")

	// Second life: same data dir, fresh everything else.
	st2, err := openStore()
	if err != nil {
		return fmt.Errorf("restart pass: reopen store: %w", err)
	}
	defer st2.Close()
	cfg2 := cfg
	cfg2.Store = st2
	inst2, err := startInstance(cfg2)
	if err != nil {
		return err
	}
	defer inst2.svc.Close()
	warm, hdr, err := inst2.post("/run", run)
	if err != nil {
		return err
	}
	if state := hdr.Get("X-Cache"); state != "store" {
		return fmt.Errorf("restart pass: rehit /run X-Cache = %q, want store", state)
	}
	// A store hit skips the engine entirely, and its X-Timing must say so.
	if err := checkTiming(hdr, false); err != nil {
		return fmt.Errorf("restart pass: store-hit /run: %w", err)
	}
	if !bytes.Equal(cold, warm) {
		return fmt.Errorf("restart pass: rehit body differs from the pre-restart run")
	}
	b, _, err = inst2.post("/jobs", sweep)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &submitted); err != nil {
		return fmt.Errorf("decode job resubmit: %w", err)
	}
	jobDone, err = inst2.waitJob(submitted.ID)
	if err != nil {
		return err
	}
	if p := jobDone.Progress; p == nil || p.CompletedCells != 2 || p.ExecutedCells != 0 {
		return fmt.Errorf("restart pass: resubmitted sweep progress = %+v, want 2 completed / 0 executed", jobDone.Progress)
	}
	stats, err := inst2.stats()
	if err != nil {
		return err
	}
	if stats.Executions != 0 {
		return fmt.Errorf("restart pass: restarted instance executed %d simulations, want 0", stats.Executions)
	}
	if stats.Store == nil || stats.Store.Serves == 0 || stats.Store.Records == 0 {
		return fmt.Errorf("restart pass: store stats = %+v", stats.Store)
	}
	log.Printf("smoke: restart-and-rehit ok (store served %d responses, %d records on disk, 0 executions)",
		stats.Store.Serves, stats.Store.Records)
	if err := inst2.shutdown(); err != nil {
		return fmt.Errorf("restart pass: shutdown: %w", err)
	}
	return nil
}

// runSmokeProof is the provenance self-check behind `make smoke-proof`:
// populate a durable store over HTTP (a /run plus a two-cell /matrix
// sweep), seal it, fetch and verify inclusion proofs, restart on the
// same directory and require the proofs bit-identical, then leave a
// verification kit under dir for cmd/thermproof to check offline:
//
//	dir/data/            the sealed store, verified clean in-process
//	dir/proof.json       the /run body's proof document, verbatim
//	dir/body.json        the body that proof commits to
//	dir/chain-head.txt   the chain head to pin with -chain-head
//	dir/tampered/        a copy with ONE body byte flipped (CRC fixed
//	                     up, so only the Merkle layer can catch it)
//	dir/tampered-key.txt the key whose record was tampered
func runSmokeProof(cfg service.Config, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dataDir := filepath.Join(dir, "data")
	openStore := func() (*store.Store, error) {
		return store.Open(dataDir, store.Options{
			Pinned:  service.JournalPinned,
			Version: experiment.EngineVersion,
		})
	}

	// First life: populate and seal.
	st1, err := openStore()
	if err != nil {
		return err
	}
	cfg1 := cfg
	cfg1.Store = st1
	inst, err := startInstance(cfg1)
	if err != nil {
		return err
	}
	defer inst.svc.Close()
	const run = `{"scenario":"sdr-radio","policy":"tb","delta":3,"warmup_s":0.5,"measure_s":1}`
	const sweep = `{"scenarios":["sdr-radio"],"policies":["eb","tb"],"delta":3,"warmup_s":0.5,"measure_s":1}`
	runBody, hdr, err := inst.post("/run", run)
	if err != nil {
		return err
	}
	runKey := hdr.Get("X-Content-Key")
	if len(runKey) != 64 {
		return fmt.Errorf("/run X-Content-Key = %q, want a 64-hex content address", runKey)
	}
	matrixBody, hdr, err := inst.post("/matrix", sweep)
	if err != nil {
		return err
	}
	matrixKey := hdr.Get("X-Content-Key")
	if len(matrixKey) != 64 || matrixKey == runKey {
		return fmt.Errorf("/matrix X-Content-Key = %q (run key %q)", matrixKey, runKey)
	}
	log.Printf("smoke-proof: store populated (/run + 2-cell sweep), keys stamped on both responses")

	// Unsealed records must be refused, not unprovable-silently.
	if code, _, err := inst.getStatus("/proof?key=" + runKey); err != nil || code != http.StatusConflict {
		return fmt.Errorf("pre-seal /proof = %d (err %v), want 409", code, err)
	}
	if _, _, err := inst.post("/seal", ""); err != nil {
		return err
	}
	proofRaw, err := inst.get("/proof?key=" + runKey)
	if err != nil {
		return err
	}
	var runProof provenance.Proof
	if err := json.Unmarshal(proofRaw, &runProof); err != nil {
		return fmt.Errorf("decode /proof: %w", err)
	}
	if err := runProof.VerifyBody(runBody); err != nil {
		return fmt.Errorf("run proof does not verify against the served body: %w", err)
	}
	if runProof.Leaf.Version != experiment.EngineVersion {
		return fmt.Errorf("run proof engine version = %q, want %q", runProof.Leaf.Version, experiment.EngineVersion)
	}
	matrixProofRaw, err := inst.get("/proof?key=" + matrixKey)
	if err != nil {
		return err
	}
	var matrixProof provenance.Proof
	if err := json.Unmarshal(matrixProofRaw, &matrixProof); err != nil {
		return fmt.Errorf("decode matrix /proof: %w", err)
	}
	if err := matrixProof.VerifyBody(matrixBody); err != nil {
		return fmt.Errorf("matrix proof does not verify against the sweep body: %w", err)
	}
	log.Printf("smoke-proof: sealed; both proofs verify (root %s, chain pos %d)", runProof.Root, runProof.ChainPos)

	// Kill-equivalent stop: the HTTP server goes away, the store is
	// never closed. The reopened store must reconcile its manifest and
	// serve bit-identical proofs.
	if err := inst.shutdown(); err != nil {
		return fmt.Errorf("first shutdown: %w", err)
	}
	st2, err := openStore()
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	cfg2 := cfg
	cfg2.Store = st2
	inst2, err := startInstance(cfg2)
	if err != nil {
		st2.Close()
		return err
	}
	defer inst2.svc.Close()
	warm, hdr, err := inst2.post("/run", run)
	if err != nil {
		return err
	}
	if state := hdr.Get("X-Cache"); state != "store" {
		return fmt.Errorf("restarted /run X-Cache = %q, want store", state)
	}
	if got := hdr.Get("X-Content-Key"); got != runKey {
		return fmt.Errorf("restarted X-Content-Key = %q, want %q", got, runKey)
	}
	if !bytes.Equal(warm, runBody) {
		return fmt.Errorf("restarted /run body differs from the sealed one")
	}
	proofRaw2, err := inst2.get("/proof?key=" + runKey)
	if err != nil {
		return err
	}
	var runProof2 provenance.Proof
	if err := json.Unmarshal(proofRaw2, &runProof2); err != nil {
		return fmt.Errorf("decode restarted /proof: %w", err)
	}
	if runProof2.Root != runProof.Root || runProof2.Chain != runProof.Chain || runProof2.Index != runProof.Index {
		return fmt.Errorf("restarted proof differs: root %s chain %s, want %s %s",
			runProof2.Root, runProof2.Chain, runProof.Root, runProof.Chain)
	}
	stats, err := inst2.stats()
	if err != nil {
		return err
	}
	if stats.Store == nil || stats.Store.SealedSegments < 1 || stats.Store.TaintedSegments != 0 {
		return fmt.Errorf("restarted store stats = %+v, want sealed segments and no taint", stats.Store)
	}
	chainHead := stats.Store.ChainHead
	if err := inst2.shutdown(); err != nil {
		return fmt.Errorf("second shutdown: %w", err)
	}
	if err := st2.Close(); err != nil {
		return err
	}
	log.Printf("smoke-proof: restart ok (proof bit-identical, chain head %s)", chainHead)

	// Leave the offline-verification kit.
	if err := os.WriteFile(filepath.Join(dir, "proof.json"), proofRaw2, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "body.json"), runBody, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "chain-head.txt"), []byte(chainHead+"\n"), 0o644); err != nil {
		return err
	}
	tamperedDir := filepath.Join(dir, "tampered")
	if err := copyDir(dataDir, tamperedDir); err != nil {
		return err
	}
	// Flip one body byte in the first sealed record and fix up the
	// frame CRC, so nothing but the Merkle layer can notice.
	tamperedKey, err := store.TamperForTest(tamperedDir, 1, 0)
	if err != nil {
		return fmt.Errorf("tamper: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tampered-key.txt"), []byte(tamperedKey+"\n"), 0o644); err != nil {
		return err
	}

	// In-process cross-check of what thermproof will assert offline:
	// the pristine store verifies, the tampered copy must not.
	if _, err := store.VerifyDir(dataDir); err != nil {
		return fmt.Errorf("pristine store fails verification: %w", err)
	}
	rep, err := store.VerifyDir(tamperedDir)
	if err == nil {
		return fmt.Errorf("tampered store verified clean")
	}
	if len(rep.Bad) == 0 || rep.Bad[0].Key != tamperedKey {
		return fmt.Errorf("tamper not localized to key %s: %v", tamperedKey, err)
	}
	log.Printf("smoke-proof: artifacts under %s (tampered key %s localized in-process)", dir, tamperedKey)
	return nil
}

// copyDir copies a flat directory of regular files (a store data dir:
// segments, sidecars, the manifest).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
