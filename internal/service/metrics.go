package service

import (
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/obs"
	"thermbal/internal/store"
)

// Cache outcomes, indexed for allocation-free lookup on the hot path.
// The spellings match the X-Cache header values.
const (
	outHit = iota
	outStore
	outMiss
	outCoalesced
	outError
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"hit", "store", "miss", "coalesced", "error"}

func outcomeIndex(state string) int {
	switch state {
	case "hit":
		return outHit
	case "store":
		return outStore
	case "miss":
		return outMiss
	case "coalesced":
		return outCoalesced
	default:
		return outError
	}
}

// Endpoints with per-request timing records.
const (
	epRun = iota
	epMatrix
	numEndpoints
)

var endpointNames = [numEndpoints]string{"run", "matrix"}

// serverMetrics holds the server's pre-registered instruments: the one
// place a service counter is defined and read, rendered by /metrics.
// Every histogram and counter the request path touches is resolved to a
// pointer here at startup, so recording is array indexing plus atomic
// adds — no name lookups, no label formatting, no allocation — cheap
// enough for the cached-request path. Values another structure already
// owns (cache, flight group, job table, store, admission) are read from
// it at scrape time instead of being counted twice.
//
// Counts reconcile exactly:
// thermbal_stage_duration_seconds_count{stage="execute"} equals
// thermbal_executions_total (both increment once per engine run,
// matrix cells included), and thermbal_requests_total sums the serving
// outcomes the X-Cache header reports.
type serverMetrics struct {
	reg *obs.Registry
	// stages is one histogram per timed stage; execution-side stages
	// (queue, execute, encode, store) are observed once per engine run
	// by the detached execution itself, the coalesce stage once per
	// waiter that attached to another caller's run.
	stages [obs.NumStages]*obs.Histogram
	// requests / requestsTotal split whole-request latency by endpoint
	// and cache outcome ("cache hit vs store hit vs executed" are
	// distinct labels, plus coalesced and error).
	requests      [numEndpoints][numOutcomes]*obs.Histogram
	requestsTotal [numEndpoints][numOutcomes]*obs.Counter
	// jobQueueWait is submit-to-claim wait in the async job queue;
	// jobDuration is claim-to-finish, labelled by job kind.
	jobQueueWait *obs.Histogram
	jobDuration  [numEndpoints]*obs.Histogram
	// executions counts engine runs: one per coalesced group, one per
	// executed sweep cell; cache and store hits execute nothing.
	executions *obs.Counter
	// jobsRecovered counts jobs re-submitted from the durable job
	// journal at startup.
	jobsRecovered *obs.Counter
	// shed counts overload refusals by reason (see shedReasonNames);
	// every one of them was answered with 503 + Retry-After.
	shed [numShedReasons]*obs.Counter

	// The store-backed instruments are nil on a memory-only server,
	// whose request paths never reach them. storeServes counts
	// responses served straight from the durable store (a warm
	// restart's first requests); storeErrors counts store read/write
	// failures, which degrade to memory-only service instead of failing
	// the request. proofsServed / proofErrors count /proof outcomes:
	// served is a 200 with an inclusion proof, errors is everything the
	// store refused (unknown key, unsealed tail, tainted segment).
	// proofDuration times the store lookup that builds a proof.
	storeServes   *obs.Counter
	storeErrors   *obs.Counter
	proofsServed  *obs.Counter
	proofErrors   *obs.Counter
	proofDuration *obs.Histogram
}

// storeFamilies are the durable store's own counters and gauges, each
// read from a store.Stats snapshot at scrape time.
var storeFamilies = []struct {
	name, help string
	counter    bool
	value      func(store.Stats) float64
}{
	{"thermbal_store_bytes", "Durable-store size on disk, superseded records included.", false,
		func(st store.Stats) float64 { return float64(st.Bytes) }},
	{"thermbal_store_live_bytes", "On-disk size of the live (indexed) records alone.", false,
		func(st store.Stats) float64 { return float64(st.LiveBytes) }},
	{"thermbal_store_records", "Live (indexed) records in the durable store.", false,
		func(st store.Stats) float64 { return float64(st.Records) }},
	{"thermbal_store_segments", "Segment files in the durable store.", false,
		func(st store.Stats) float64 { return float64(st.Segments) }},
	{"thermbal_store_gets_total", "Durable-store lookups since open.", true,
		func(st store.Stats) float64 { return float64(st.Gets) }},
	{"thermbal_store_hits_total", "Durable-store lookups that found a record.", true,
		func(st store.Stats) float64 { return float64(st.Hits) }},
	{"thermbal_store_puts_total", "Records appended to the durable store since open.", true,
		func(st store.Stats) float64 { return float64(st.Puts) }},
	{"thermbal_store_compactions_total", "Durable-store log rewrites.", true,
		func(st store.Stats) float64 { return float64(st.Compactions) }},
	{"thermbal_store_evicted_total", "Live records dropped by size-budget eviction during compaction.", true,
		func(st store.Stats) float64 { return float64(st.Evicted) }},
	{"thermbal_store_compact_errors_total", "Failed automatic compactions (retried on a later append).", true,
		func(st store.Stats) float64 { return float64(st.CompactErrors) }},
	{"thermbal_store_tail_truncated_bytes", "Bytes of a partial record cut from the active segment's tail at open.", false,
		func(st store.Stats) float64 { return float64(st.TailTruncated) }},
	{"thermbal_store_corrupt_segments", "Sealed segments whose replay stopped at a corrupt record at open.", false,
		func(st store.Stats) float64 { return float64(st.CorruptSegments) }},
	{"thermbal_store_seals_total", "Segments sealed into the Merkle chain (rotation, compaction, retro-seal).", true,
		func(st store.Stats) float64 { return float64(st.Seals) }},
	{"thermbal_store_seal_errors_total", "Failed seal attempts (the segment stays unsealed; records remain servable).", true,
		func(st store.Stats) float64 { return float64(st.SealErrors) }},
	{"thermbal_store_sealed_segments", "Segments sealed under a Merkle root in the provenance manifest.", false,
		func(st store.Stats) float64 { return float64(st.SealedSegments) }},
	{"thermbal_store_sealed_records", "Records committed to by the sealed Merkle roots.", false,
		func(st store.Stats) float64 { return float64(st.SealedRecords) }},
	{"thermbal_store_unsealed_records", "Records in the active segment, not yet provable (sealed at the next rotation).", false,
		func(st store.Stats) float64 { return float64(st.UnsealedRecords) }},
	{"thermbal_store_tainted_segments", "Sealed segments whose recomputed root no longer matches the manifest.", false,
		func(st store.Stats) float64 { return float64(st.TaintedSegments) }},
	{"thermbal_store_chain_length", "Links in the sealed-root hash chain (POST /seal returns its head).", false,
		func(st store.Stats) float64 { return float64(st.ChainLen) }},
}

// newServerMetrics registers every instrument. Registration order is
// render order on /metrics.
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{reg: r}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		m.stages[st] = r.NewHistogram("thermbal_stage_duration_seconds",
			"Time spent in each request stage, observed once per occurrence.",
			obs.DefBuckets, obs.L("stage", obs.StageNames[st]))
	}
	for ep := 0; ep < numEndpoints; ep++ {
		for o := 0; o < numOutcomes; o++ {
			m.requests[ep][o] = r.NewHistogram("thermbal_request_duration_seconds",
				"Whole-request latency by endpoint and cache outcome.",
				obs.DefBuckets, obs.L("endpoint", endpointNames[ep]), obs.L("outcome", outcomeNames[o]))
		}
	}
	for ep := 0; ep < numEndpoints; ep++ {
		for o := 0; o < numOutcomes; o++ {
			m.requestsTotal[ep][o] = r.NewCounter("thermbal_requests_total",
				"Requests served by endpoint and cache outcome.",
				obs.L("endpoint", endpointNames[ep]), obs.L("outcome", outcomeNames[o]))
		}
	}
	m.jobQueueWait = r.NewHistogram("thermbal_job_queue_wait_seconds",
		"Async job wait from submission to a worker claiming it.", obs.DefBuckets)
	for ep := 0; ep < numEndpoints; ep++ {
		m.jobDuration[ep] = r.NewHistogram("thermbal_job_duration_seconds",
			"Async job run time from claim to finish, by kind.",
			obs.DefBuckets, obs.L("kind", endpointNames[ep]))
	}

	m.executions = r.NewCounter("thermbal_executions_total",
		"Engine runs executed (cache, store and coalesced serves excluded).")
	r.NewCounterFunc("thermbal_coalesced_total",
		"Requests served by waiting on another caller's identical in-flight execution.",
		func() float64 { _, coalesced := s.flight.counts(); return float64(coalesced) })
	r.NewCounterFunc("thermbal_cache_hits_total", "Result-cache hits.",
		func() float64 { return float64(s.cache.stats().hits) })
	r.NewCounterFunc("thermbal_cache_misses_total", "Result-cache misses.",
		func() float64 { return float64(s.cache.stats().misses) })
	r.NewCounterFunc("thermbal_cache_evictions_total", "Result-cache evictions.",
		func() float64 { return float64(s.cache.stats().evictions) })
	r.NewGaugeFunc("thermbal_cache_entries", "Result-cache bodies held.",
		func() float64 { return float64(s.cache.stats().entries) })
	r.NewGaugeFunc("thermbal_inflight", "Distinct executions in flight.",
		func() float64 { inflight, _ := s.flight.counts(); return float64(inflight) })
	r.NewGaugeFunc("thermbal_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	// The configured limits, and the schema version every document
	// carries: constants for the life of the server, exposed so a
	// dashboard can draw each usage series against its bound.
	type constGauge struct {
		name, help string
		v          float64
	}
	cfg := s.cfg
	consts := []constGauge{
		{"thermbal_schema_version", "Version of the result-document schema this server emits.", experiment.SchemaVersion},
		{"thermbal_max_sims", "Concurrent engine executions allowed (-max-sims).", float64(cfg.MaxSims)},
		{"thermbal_max_pending_sim_seconds", "Pending simulated-seconds budget before shedding (-max-pending-sim-s); 0 is unbounded.", cfg.MaxPendingSimS},
		{"thermbal_job_queue_capacity", "Pending-job queue bound (-queue-depth).", float64(cfg.QueueDepth)},
		{"thermbal_job_workers", "Async job workers (-job-workers).", float64(cfg.JobWorkers)},
		{"thermbal_cache_capacity", "Result-cache capacity in bodies (-cache).", float64(cfg.CacheEntries)},
	}
	if s.quota != nil {
		consts = append(consts,
			constGauge{"thermbal_quota_rps", "Per-tenant quota in requests per second (-quota-rps).", s.quota.rps},
			constGauge{"thermbal_quota_burst", "Per-tenant token-bucket depth (-quota-burst).", s.quota.burst})
	}
	for _, c := range consts {
		v := c.v
		r.NewGaugeFunc(c.name, c.help, func() float64 { return v })
	}

	if cfg.Store != nil {
		m.storeServes = r.NewCounter("thermbal_store_serves_total",
			"Responses served straight from the durable store.")
		m.storeErrors = r.NewCounter("thermbal_store_errors_total",
			"Durable-store read/write failures (requests degrade to memory-only).")
		for _, f := range storeFamilies {
			value := f.value
			fn := func() float64 { return value(cfg.Store.Stats()) }
			if f.counter {
				r.NewCounterFunc(f.name, f.help, fn)
			} else {
				r.NewGaugeFunc(f.name, f.help, fn)
			}
		}
		m.proofDuration = r.NewHistogram("thermbal_proof_duration_seconds",
			"Time to build one Merkle inclusion proof for /proof.", obs.DefBuckets)
		m.proofsServed = r.NewCounter("thermbal_proofs_served_total",
			"Inclusion proofs served by /proof.")
		m.proofErrors = r.NewCounter("thermbal_proof_errors_total",
			"/proof requests the store refused (unknown key, unsealed tail, tainted segment).")
	}
	// Warm-up checkpoints are process-wide too: every run this server
	// executes restores or simulates its warm-up through one cache.
	r.NewCounterFunc("thermbal_warmup_checkpoint_hits_total",
		"Runs that restored their warm-up from a checkpoint, process-wide.",
		func() float64 { return float64(experiment.WarmupCacheStats().Hits) })
	r.NewCounterFunc("thermbal_warmup_checkpoint_misses_total",
		"Runs that simulated their warm-up, process-wide.",
		func() float64 { return float64(experiment.WarmupCacheStats().Misses) })
	r.NewCounterFunc("thermbal_warmup_checkpoint_evictions_total",
		"Warm-up checkpoints dropped to stay within the cache's byte budget.",
		func() float64 { return float64(experiment.WarmupCacheStats().Evictions) })
	r.NewGaugeFunc("thermbal_warmup_checkpoint_bytes",
		"Bytes held by cached warm-up checkpoints.",
		func() float64 { return float64(experiment.WarmupCacheStats().Bytes) })
	if cfg.TimingLog != nil {
		r.NewGaugeFunc("thermbal_timing_log_failed",
			"1 when the timing log hit its sticky write error and stopped recording.",
			func() float64 {
				if cfg.TimingLog.Err() != nil {
					return 1
				}
				return 0
			})
		r.NewCounterFunc("thermbal_timing_log_dropped_total",
			"Timing records discarded after the log's sticky write error.",
			func() float64 { return float64(cfg.TimingLog.Dropped()) })
	}
	for _, state := range []JobState{JobPending, JobRunning, JobDone, JobFailed, JobCancelled} {
		r.NewGaugeFunc("thermbal_jobs", "Async jobs by lifecycle state.",
			func() float64 { return float64(s.jobs.countState(state)) },
			obs.L("state", string(state)))
	}
	m.jobsRecovered = r.NewCounter("thermbal_jobs_recovered_total",
		"Jobs re-submitted from the durable job journal at startup.")
	// Admission control: shed decisions by reason, the pending backlog,
	// the execution-slot queue and the per-tenant quotas.
	for reason := 0; reason < numShedReasons; reason++ {
		m.shed[reason] = r.NewCounter("thermbal_shed_total",
			"Requests refused with 503 + Retry-After, by shed reason.",
			obs.L("reason", shedReasonNames[reason]))
	}
	r.NewGaugeFunc("thermbal_pending_sim_seconds",
		"Estimated simulated seconds admitted but not yet finished.",
		func() float64 { return s.budget.pendingSimS() })
	for prio := 0; prio < numPriorities; prio++ {
		r.NewGaugeFunc("thermbal_exec_queue_depth",
			"Goroutines waiting for an execution slot, by priority class.",
			func() float64 { w, _ := s.slots.depths(); return float64(w[prio]) },
			obs.L("priority", prioNames[prio]))
	}
	r.NewGaugeFunc("thermbal_exec_slots_free",
		"Execution slots currently free (of -max-sims).",
		func() float64 { _, free := s.slots.depths(); return float64(free) })
	if s.quota != nil {
		r.NewCounterFunc("thermbal_quota_denied_total",
			"Requests refused with 429 + Retry-After by per-tenant quotas.",
			func() float64 { _, denied := s.quota.stats(); return float64(denied) })
		r.NewGaugeFunc("thermbal_quota_tenants",
			"Tenants with a live token bucket (idle tenants are pruned).",
			func() float64 { tenants, _ := s.quota.stats(); return float64(tenants) })
	}
	return m
}

// observeExecution records the execution-side stages of one engine
// run. Called by the detached execution goroutine after the run (and
// its store append, when one happened), so the stage counts equal the
// executions counter whether or not the originating caller is still
// waiting. stored selects whether the store-append stage occurred; a
// memory-only server never feeds zeros into the store histogram.
func (m *serverMetrics) observeExecution(er *obs.TimingRecord, stored bool) {
	m.stages[obs.StageQueue].Observe(er.D[obs.StageQueue])
	m.stages[obs.StageExecute].Observe(er.D[obs.StageExecute])
	m.stages[obs.StageEncode].Observe(er.D[obs.StageEncode])
	if stored {
		m.stages[obs.StageStore].Observe(er.D[obs.StageStore])
	}
}

// observeRequest records one finished request: the total-latency
// histogram and counter for its endpoint and outcome. This is the
// entire recording cost of a cache hit — two atomic adds on
// pre-registered instruments — and is asserted allocation-free.
func (m *serverMetrics) observeRequest(ep int, rec *obs.TimingRecord) {
	o := outcomeIndex(rec.Outcome)
	m.requests[ep][o].Observe(rec.Total)
	m.requestsTotal[ep][o].Inc()
}
