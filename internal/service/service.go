// Package service is the simulation-serving layer: a long-running
// HTTP/JSON job server over the deterministic experiment engine.
//
// The design leans entirely on the engine's bit-for-bit determinism
// (the integer-tick clock and event-horizon fast path): because the
// same fully-resolved configuration always produces the same bytes,
// results are content-addressed. Every request is canonicalized —
// aliases resolved, defaults filled — and hashed into a stable cache
// key; responses are stored as fully-encoded bodies in a bounded LRU,
// so a cache hit is byte-identical to the cold run that populated it.
// Identical in-flight requests are coalesced singleflight-style: N
// concurrent identical requests execute the simulation once and all
// receive the same body.
//
// Endpoints: /scenarios and /policies (registry catalogues), /run
// (synchronous, small jobs), /matrix (batched scenarios × policies
// sweep), /jobs + /jobs/{id} (bounded async queue: submit, poll,
// cancel), /proof (a Merkle inclusion proof for one stored result,
// see internal/provenance), /stats (cache/coalescing/job counters
// plus per-stage latency quantiles), /metrics (Prometheus text
// exposition of the same histograms) and /healthz. Every /run and
// /matrix response carries an X-Timing header with its per-stage
// timings (see internal/obs) and an X-Content-Key header with the
// canonical content address — the key to pass to /proof.
// cmd/thermservd is the binary; `thermsim -json` emits the same
// versioned result schema through the same encoder.
package service

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/obs"
	"thermbal/internal/request"
	"thermbal/internal/sim"
	"thermbal/internal/store"
)

// Config parameterises a Server. The zero value is ready to use.
type Config struct {
	// CacheEntries bounds the result cache (default 512 bodies).
	CacheEntries int
	// JobWorkers bounds concurrently executing async jobs
	// (default GOMAXPROCS).
	JobWorkers int
	// QueueDepth bounds submitted-but-not-started jobs; a full queue
	// rejects submissions with 503 (default 64).
	QueueDepth int
	// JobRetention bounds how many finished (done/failed/cancelled)
	// jobs stay pollable; older ones are pruned with their result
	// bodies so the job table cannot grow without bound (default 256).
	JobRetention int
	// MaxSims bounds engine executions running concurrently across
	// every endpoint and the job workers (default 2×GOMAXPROCS).
	// Detached sync executions are otherwise unbounded in number —
	// every distinct canonical config starts one — so without a cap a
	// burst of distinct requests could exhaust the machine; beyond the
	// cap, executions queue for a slot. Sweeps, sync or async, run as
	// per-cell executions that hold MaxSims slots like any other run.
	MaxSims int
	// MaxSyncSimS bounds the simulated seconds (warmup + measure) a
	// synchronous /run accepts; longer runs must go through the async
	// /jobs queue (default 600).
	MaxSyncSimS float64
	// MaxPendingSimS bounds the total estimated simulated seconds of
	// admitted-but-unfinished work — executing sync requests plus the
	// whole remaining cost of accepted jobs. Work that would push the
	// backlog past the bound is shed with 503 + Retry-After instead of
	// queueing unboundedly; cache and store hits are never shed. The
	// default is 20×MaxSyncSimS; negative disables the bound.
	MaxPendingSimS float64
	// QuotaRPS enables per-tenant token-bucket quotas: each tenant
	// (TenantHeader value, else remote IP) may sustain QuotaRPS
	// requests per second on the costed endpoints (/run, /matrix,
	// POST /jobs) with bursts up to QuotaBurst; beyond that the
	// request is refused with 429 + Retry-After. 0 disables quotas.
	QuotaRPS float64
	// QuotaBurst is the token-bucket depth (default ceil(2×QuotaRPS),
	// minimum 1).
	QuotaBurst float64
	// TenantHeader names the request header that identifies the
	// tenant for quota accounting (default "X-Tenant"); requests
	// without it fall back to the remote IP.
	TenantHeader string
	// TimingLog, when non-nil, receives one CSV record per /run and
	// /matrix request (cmd/thermservd's -timing-log flag). Logging is
	// off the measured path: the record is appended after the response
	// is written.
	TimingLog *obs.CSVLogger
	// Store, when non-nil, is the durable content-addressed result
	// store layered under the in-memory cache: cache misses fall
	// through to it before executing, every executed result is
	// appended to it, and unfinished jobs journaled in it are
	// re-submitted on New — so a warm restart serves byte-identical
	// bodies and resumes sweeps from their completed cells. The caller
	// owns the store and closes it after Close. Pass store.Options
	// with Pinned: request.JournalPinned when opening it, so size
	// eviction cannot drop the job journal.
	Store *store.Store

	// runSim substitutes the engine. In-package tests inject blocking
	// or counting stubs here — before New spawns any goroutine, so no
	// synchronization is needed — to observe coalescing
	// deterministically. nil selects the real engine.
	runSim func(rc experiment.RunConfig) (sim.Result, error)
}

func (c Config) fill() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 256
	}
	if c.MaxSims <= 0 {
		c.MaxSims = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxSyncSimS <= 0 {
		c.MaxSyncSimS = 600
	}
	if c.MaxPendingSimS == 0 {
		c.MaxPendingSimS = 20 * c.MaxSyncSimS
	}
	if c.MaxPendingSimS < 0 {
		c.MaxPendingSimS = 0 // explicit "unbounded"
	}
	if c.TenantHeader == "" {
		c.TenantHeader = "X-Tenant"
	}
	return c
}

// Server executes canonicalized simulation requests behind a
// content-addressed cache, an in-flight coalescing layer and a bounded
// async job queue. Create with New, expose with Handler, stop with
// Close.
type Server struct {
	cfg     Config
	cache   *lruCache
	flight  flightGroup
	jobs    jobManager
	slots   *prioSlots    // engine execution slots (MaxSims), priority-classed
	budget  costBudget    // admitted-but-unfinished simulated seconds
	quota   *tenantQuotas // per-tenant token buckets; nil when disabled
	base    context.Context
	stop    context.CancelFunc
	start   time.Time
	metrics *serverMetrics

	// shed counts overload refusals by reason (see shedReasonNames);
	// every one of them was answered with 503 + Retry-After.
	shed [numShedReasons]atomic.Int64

	// executions counts actual engine runs (one per coalesced group,
	// one per executed sweep cell; cache and store hits execute
	// nothing).
	executions atomic.Int64
	// storeServes counts responses served straight from the durable
	// store (a warm restart's first requests); storeErrors counts
	// store read/write failures, which degrade to memory-only service
	// instead of failing the request.
	storeServes atomic.Int64
	storeErrors atomic.Int64
	// proofsServed / proofErrors count /proof outcomes: served is a
	// 200 with an inclusion proof, errors is everything the store
	// refused (unknown key, unsealed tail, tainted segment). Together
	// they reconcile with the /proof request count.
	proofsServed atomic.Int64
	proofErrors  atomic.Int64

	// runSim is the engine seam; tests substitute it to observe or
	// control execution counts deterministically.
	runSim func(rc experiment.RunConfig) (sim.Result, error)
}

// New builds a Server and starts its job workers.
func New(cfg Config) *Server {
	cfg = cfg.fill()
	s := &Server{
		cfg:    cfg,
		cache:  newLRUCache(cfg.CacheEntries),
		slots:  newPrioSlots(cfg.MaxSims),
		start:  time.Now(),
		runSim: cfg.runSim,
	}
	s.budget.max = cfg.MaxPendingSimS
	if cfg.QuotaRPS > 0 {
		s.quota = newTenantQuotas(cfg.QuotaRPS, cfg.QuotaBurst)
	}
	if s.runSim == nil {
		s.runSim = func(rc experiment.RunConfig) (sim.Result, error) {
			res, _, err := experiment.Run(rc)
			return res, err
		}
	}
	s.base, s.stop = context.WithCancel(context.Background())
	s.metrics = newServerMetrics(s)
	s.jobs.init(cfg.QueueDepth, cfg.JobRetention)
	// The job manager reserves a job's whole estimated cost against
	// the pending budget at submit and releases it at any final state;
	// journal-recovered jobs reserve unconditionally (force) — they
	// were admitted by a previous process and must not be stranded.
	s.jobs.reserveCost = func(j *job, force bool) error {
		if force {
			s.budget.forceReserve(j.cost)
			return nil
		}
		if !s.budget.admit(j.cost) {
			s.shed[shedCost].Add(1)
			return &shedError{retryAfter: shedRetryAfter(s.budget.pendingSimS(), s.cfg.MaxSims)}
		}
		return nil
	}
	s.jobs.releaseCost = func(j *job) { s.budget.release(j.cost) }
	s.initJournal()
	// Journaled jobs from a previous process are re-enqueued before the
	// workers start; their completed cells are already in the store, so
	// a resumed sweep executes only what is missing.
	s.recoverJobs()
	for i := 0; i < cfg.JobWorkers; i++ {
		go s.jobWorker()
	}
	return s
}

// Close stops the job workers and abandons queued jobs. In-flight
// simulations run to completion (they are not interruptible) but no
// new job starts.
func (s *Server) Close() { s.stop() }

// execute serves one canonical request's encoded body: in-memory
// cache first, then the durable store, then the coalescing layer,
// then build — which produces the body (an engine run or a whole
// sweep) and keeps it (see keep). cost is the work's estimated
// simulated seconds, reserved against the pending budget before build
// runs; a reservation the budget refuses sheds the request with 503
// instead of queueing it. Only work that would actually execute pays
// it: cache hits, store hits and coalesced waiters reserve nothing and
// are never shed. The returned cache state is "hit" (memory), "store"
// (durable store, after a restart), "miss" (this caller executed) or
// "coalesced" (another caller's execution was shared). ctx bounds only
// this caller's wait: the execution itself is detached, so one
// disconnecting client neither starves the coalesced others nor wastes
// the result — it still lands in the cache and the store.
//
// rec is the caller's timing record. build stamps its stage
// boundaries into a record owned by the detached execution — never the
// caller's, which may have abandoned its wait; the caller's rec
// inherits the stamps only when it was the leader that saw the
// execution through (flight.Do copies them). A coalesced waiter's rec
// instead carries its coalesce wait.
func (s *Server) execute(ctx context.Context, key string, cost float64, rec *obs.TimingRecord, build func(er *obs.TimingRecord) ([]byte, error)) ([]byte, string, error) {
	if body, state, ok := s.lookup(key, false); ok {
		return body, state, nil
	}
	// leaderState records how the leader's closure actually served the
	// key: the re-check under the flight can find the body without
	// executing, and reporting that as "miss" would miscount a matrix
	// cell as executed. Reading it is safe exactly when this caller was
	// the (uncancelled) leader — the closure completed-before Do
	// returned.
	leaderState := "miss"
	body, shared, err := s.flight.Do(ctx, key, rec, func(er *obs.TimingRecord) ([]byte, error) {
		// Re-check under the flight: a previous leader for this key may
		// have cached the body between our lookup and becoming leader,
		// and the engine run is far too expensive to duplicate.
		if body, state, ok := s.lookup(key, true); ok {
			leaderState = state
			return body, nil
		}
		// Cost admission precedes any slot queue: a backlogged server
		// refuses new work up front (bounded Retry-After) rather than
		// parking it behind an unbounded line of predecessors.
		if !s.budget.admit(cost) {
			s.shed[shedCost].Add(1)
			return nil, &shedError{retryAfter: shedRetryAfter(s.budget.pendingSimS(), s.cfg.MaxSims)}
		}
		defer s.budget.release(cost)
		return build(er)
	})
	if err != nil {
		return nil, "", err
	}
	state := leaderState
	if shared {
		state = "coalesced"
		s.metrics.stages[obs.StageCoalesce].Observe(rec.D[obs.StageCoalesce])
	}
	return body, state, nil
}

// keep caches an executed body under key and appends it to the
// durable store, stamping the append into er; it reports whether the
// body was stored.
func (s *Server) keep(key string, body []byte, er *obs.TimingRecord) bool {
	s.cache.Add(key, body)
	if s.cfg.Store == nil {
		return false
	}
	t := time.Now()
	s.storePut(key, body)
	er.D[obs.StageStore] = time.Since(t)
	return true
}

// lookup is the shared read ladder every serving path goes through:
// the in-memory cache first, then the durable store — a store hit is
// re-cached and counted as a serve. state is "hit" or "store". recheck
// selects the flight leader's variant, whose cache probe must not
// count a second miss (the caller's original lookup already did).
func (s *Server) lookup(key string, recheck bool) ([]byte, string, bool) {
	var body []byte
	var ok bool
	if recheck {
		body, ok = s.cache.peek(key)
	} else {
		body, ok = s.cache.Get(key)
	}
	if ok {
		return body, "hit", true
	}
	if body, ok := s.storeGet(key); ok {
		s.cache.Add(key, body)
		s.storeServes.Add(1)
		return body, "store", true
	}
	return nil, "", false
}

// storeGet reads key from the durable store, if one is configured. A
// store read error is counted and treated as a miss: the request can
// still be served by executing.
func (s *Server) storeGet(key string) ([]byte, bool) {
	if s.cfg.Store == nil {
		return nil, false
	}
	body, ok, err := s.cfg.Store.Get(key)
	if err != nil {
		s.storeErrors.Add(1)
		return nil, false
	}
	return body, ok
}

// storePut appends key's body to the durable store, if one is
// configured. A write error is counted but does not fail the request:
// the result is still served (and cached in memory); it is just not
// durable.
func (s *Server) storePut(key string, body []byte) {
	if s.cfg.Store == nil {
		return
	}
	if err := s.cfg.Store.Put(key, body); err != nil {
		s.storeErrors.Add(1)
	}
}

// executeRun serves one canonical run request. Its execution queues
// for a MaxSims slot at cls.prio — interactive ahead of bulk — and is
// counted and observed as one engine run. key is canon.Key(), computed
// once by the caller so the handler can stamp it into the
// X-Content-Key header without hashing twice.
func (s *Server) executeRun(ctx context.Context, key string, cls execClass, canon request.Request, rc experiment.RunConfig, rec *obs.TimingRecord) ([]byte, string, error) {
	return s.execute(ctx, key, cls.cost, rec, func(er *obs.TimingRecord) ([]byte, error) {
		t := time.Now()
		if err := s.slots.acquire(s.base, cls.prio); err != nil {
			return nil, err // server closing
		}
		defer s.slots.release()
		er.D[obs.StageQueue] = time.Since(t)
		s.executions.Add(1)
		t = time.Now()
		res, err := s.runSim(rc)
		er.D[obs.StageExecute] = time.Since(t)
		var body []byte
		if err == nil {
			t = time.Now()
			body, err = request.EncodeDoc(request.NewRunDoc(canon, res))
			er.D[obs.StageEncode] = time.Since(t)
		}
		stored := err == nil && s.keep(key, body, er)
		// Observed here, by the detached execution itself, so the stage
		// histogram counts equal the executions counter even when every
		// waiter has disconnected.
		s.metrics.observeExecution(er, stored)
		return body, err
	})
}

// executeSweep serves one canonical scenarios × policies sweep — the
// one sweep path, for sync /matrix and matrix jobs alike. The whole
// sweep is looked up, coalesced, cached and stored under its matrix
// key like a run; its leader reserves cls.cost once and fans the cells
// out through executeRun at cls.prio with cost 0, at most MaxSims at a
// time. Every cell is therefore cached, stored and coalesced under its
// own run key — a sweep interrupted by a kill resumes from its
// completed cells, and only missing cells execute — and every cell
// execution holds a MaxSims slot, so engine concurrency stays bounded
// by MaxSims. cellDone, when non-nil, receives each settled cell's
// cache state (a job's progress). The sweep's execute stage spans the
// whole fan-out, cell queueing included; its encode stage is the
// splice of the cell bodies.
func (s *Server) executeSweep(ctx context.Context, key string, canon request.MatrixRequest, cells []request.Cell, cls execClass, rec *obs.TimingRecord, cellDone func(state string)) ([]byte, string, error) {
	return s.execute(ctx, key, cls.cost, rec, func(er *obs.TimingRecord) ([]byte, error) {
		t := time.Now()
		bodies := make([][]byte, len(cells))
		// Cells run under the server's base context — detached from any
		// one caller, cancelled on Close — and the first failing cell
		// cancels the rest.
		err := experiment.Runner{Workers: s.cfg.MaxSims}.ForEach(s.base, len(cells), func(ctx context.Context, i int) error {
			cell := cells[i]
			var cellRec obs.TimingRecord
			body, state, err := s.executeRun(ctx, cell.Request.Key(), execClass{prio: cls.prio}, cell.Request, cell.Config, &cellRec)
			if err != nil {
				return fmt.Errorf("cell %s/%s: %w", cell.Request.Scenario, cell.Request.Policy, err)
			}
			bodies[i] = body
			if cellDone != nil {
				cellDone(state)
			}
			return nil
		})
		er.D[obs.StageExecute] = time.Since(t)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		doc, err := request.AssembleMatrixDoc(canon, cells, bodies)
		if err != nil {
			return nil, err
		}
		body, err := request.EncodeDoc(doc)
		er.D[obs.StageEncode] = time.Since(t)
		if err != nil {
			return nil, err
		}
		s.keep(key, body, er)
		return body, nil
	})
}

// StatsDoc is the /stats response: the cache, coalescing and job
// counters.
type StatsDoc struct {
	SchemaVersion int `json:"schema_version"`
	// UptimeS is the seconds since the server was created.
	UptimeS float64 `json:"uptime_s"`
	// Executions counts actual engine runs (cache hits and coalesced
	// waiters execute nothing).
	Executions int64 `json:"executions"`
	// Inflight is the number of distinct executions running (or
	// waiting for an execution slot) right now.
	Inflight int `json:"inflight"`
	// MaxSims is the concurrent-execution cap Inflight queues behind.
	MaxSims int `json:"max_sims"`
	// Coalesced is the total number of requests served by waiting on
	// another request's identical in-flight execution.
	Coalesced uint64 `json:"coalesced"`
	// Cache holds the result-cache counters. Misses count lookups that
	// fell through to the store/execution/coalescing layers, so a
	// store-served or coalesced request counts one miss and no
	// execution.
	Cache CacheStats `json:"cache"`
	// Store holds the durable-store counters; absent when the server
	// runs memory-only.
	Store *StoreStats `json:"store,omitempty"`
	// Jobs holds the async-queue counters.
	Jobs JobStats `json:"jobs"`
	// Latency holds per-endpoint and per-stage p50/p95/p99, estimated
	// from the same fixed-bucket histograms /metrics exposes.
	Latency LatencyStats `json:"latency"`
	// Admission holds the overload-control counters: the pending
	// simulated-seconds backlog against its budget, per-priority
	// execution-queue depth, cumulative shed counts by reason, and the
	// per-tenant quota table (when quotas are enabled).
	Admission AdmissionStats `json:"admission"`
}

// AdmissionStats is the /stats admission block — what a dashboard
// needs to see saturation directly instead of inferring it from 503
// rates.
type AdmissionStats struct {
	// MaxPendingSimS is the simulated-seconds budget (0: unbounded);
	// PendingSimS is the backlog currently reserved against it.
	MaxPendingSimS float64 `json:"max_pending_sim_s"`
	PendingSimS    float64 `json:"pending_sim_s"`
	// ExecQueue is the MaxSims execution-slot queue: free slots and
	// waiters per priority class.
	ExecQueue ExecQueueStats `json:"exec_queue"`
	// Shed counts overload refusals (503 + Retry-After) by reason.
	Shed ShedStats `json:"shed"`
	// Quota is the per-tenant token-bucket state; absent when quotas
	// are disabled.
	Quota *QuotaStats `json:"quota,omitempty"`
}

// ExecQueueStats is the execution-slot queue: capacity, free slots and
// per-priority waiter depth.
type ExecQueueStats struct {
	MaxSims            int `json:"max_sims"`
	Free               int `json:"free"`
	WaitingInteractive int `json:"waiting_interactive"`
	WaitingBulk        int `json:"waiting_bulk"`
}

// ShedStats counts load-shedding decisions by reason: "cost" is the
// simulated-seconds budget refusing new work, "queue_full" is the
// structural pending-job bound.
type ShedStats struct {
	Cost      int64 `json:"cost"`
	QueueFull int64 `json:"queue_full"`
}

// QuotaStats is the per-tenant quota block of /stats.
type QuotaStats struct {
	// RPS and Burst are the configured token-bucket parameters.
	RPS   float64 `json:"rps"`
	Burst float64 `json:"burst"`
	// Tenants is the number of live buckets (tenants seen recently
	// enough that their bucket has not fully refilled and been pruned).
	Tenants int `json:"tenants"`
	// Denied is the cumulative 429 count.
	Denied int64 `json:"denied"`
}

// StoreStats is the /stats durable-store block: the store's own
// segment/record/recovery counters plus the service-level ones.
type StoreStats struct {
	store.Stats
	// Serves counts responses served straight from the durable store —
	// a warm restart's cache misses that executed nothing.
	Serves int64 `json:"serves"`
	// Errors counts store read/write failures (requests still succeed,
	// degraded to memory-only).
	Errors int64 `json:"errors"`
	// ProofsServed counts /proof responses carrying an inclusion
	// proof; ProofErrors counts /proof requests the store refused
	// (unknown key, record still in the unsealed active segment, or a
	// tainted segment).
	ProofsServed int64 `json:"proofs_served"`
	ProofErrors  int64 `json:"proof_errors"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() StatsDoc {
	inflight, coalesced := s.flight.counts()
	doc := StatsDoc{
		SchemaVersion: experiment.SchemaVersion,
		UptimeS:       time.Since(s.start).Seconds(),
		Executions:    s.executions.Load(),
		Inflight:      inflight,
		MaxSims:       s.cfg.MaxSims,
		Coalesced:     coalesced,
		Cache:         s.cache.Stats(),
		Jobs:          s.jobs.stats(s.cfg.JobWorkers),
		Latency:       s.metrics.latency(),
		Admission:     s.admissionStats(),
	}
	if s.cfg.Store != nil {
		doc.Store = &StoreStats{
			Stats:        s.cfg.Store.Stats(),
			Serves:       s.storeServes.Load(),
			Errors:       s.storeErrors.Load(),
			ProofsServed: s.proofsServed.Load(),
			ProofErrors:  s.proofErrors.Load(),
		}
	}
	return doc
}

// admissionStats assembles the /stats admission block.
func (s *Server) admissionStats() AdmissionStats {
	waiting, free := s.slots.depths()
	st := AdmissionStats{
		MaxPendingSimS: s.cfg.MaxPendingSimS,
		PendingSimS:    s.budget.pendingSimS(),
		ExecQueue: ExecQueueStats{
			MaxSims:            s.cfg.MaxSims,
			Free:               free,
			WaitingInteractive: waiting[prioInteractive],
			WaitingBulk:        waiting[prioBulk],
		},
		Shed: ShedStats{
			Cost:      s.shed[shedCost].Load(),
			QueueFull: s.shed[shedQueueFull].Load(),
		},
	}
	if s.quota != nil {
		tenants, denied := s.quota.stats()
		st.Quota = &QuotaStats{
			RPS:     s.quota.rps,
			Burst:   s.quota.burst,
			Tenants: tenants,
			Denied:  denied,
		}
	}
	return st
}

var errQueueFull = fmt.Errorf("job queue full; retry later")
