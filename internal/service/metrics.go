package service

import (
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/obs"
	"thermbal/internal/trace"
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

// serverMetrics holds the server's pre-registered instruments. Every
// histogram and counter the request path touches is resolved to a
// pointer here at startup, so recording is array indexing plus atomic
// adds — no name lookups, no label formatting, no allocation — cheap
// enough for the cached-request path.
//
// Counts are designed to reconcile with /stats exactly:
// thermbal_stage_duration_seconds_count{stage="execute"} equals the
// /stats executions counter (both increment once per engine run,
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
	// proofDuration times /proof store lookups (building the Merkle
	// path). nil on a memory-only server, which has no proofs to time.
	proofDuration *obs.Histogram
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

	// Scrape-time mirrors of the /stats counters, so a Prometheus
	// scraper can reconcile the latency series against the same
	// counts /stats reports without a second bookkeeping path.
	r.NewCounterFunc("thermbal_executions_total",
		"Engine runs executed (cache, store and coalesced serves excluded).",
		func() float64 { return float64(s.executions.Load()) })
	r.NewCounterFunc("thermbal_coalesced_total",
		"Requests served by waiting on another caller's identical in-flight execution.",
		func() float64 { _, coalesced := s.flight.counts(); return float64(coalesced) })
	r.NewCounterFunc("thermbal_cache_hits_total", "Result-cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.NewCounterFunc("thermbal_cache_misses_total", "Result-cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.NewCounterFunc("thermbal_cache_evictions_total", "Result-cache evictions.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	r.NewGaugeFunc("thermbal_cache_entries", "Result-cache bodies held.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	r.NewGaugeFunc("thermbal_inflight", "Distinct executions in flight.",
		func() float64 { inflight, _ := s.flight.counts(); return float64(inflight) })
	r.NewGaugeFunc("thermbal_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	if s.cfg.Store != nil {
		r.NewCounterFunc("thermbal_store_serves_total",
			"Responses served straight from the durable store.",
			func() float64 { return float64(s.storeServes.Load()) })
		r.NewCounterFunc("thermbal_store_errors_total",
			"Durable-store read/write failures (requests degrade to memory-only).",
			func() float64 { return float64(s.storeErrors.Load()) })
		r.NewGaugeFunc("thermbal_store_bytes", "Durable-store size on disk.",
			func() float64 { return float64(s.cfg.Store.Stats().Bytes) })
		// The provenance families: seal events, the sealed/unsealed
		// record split (unsealed records are provable only after the
		// next rotation), taint, and /proof serving. Scrape-time
		// mirrors of the same counters /stats reports under "store".
		m.proofDuration = r.NewHistogram("thermbal_proof_duration_seconds",
			"Time to build one Merkle inclusion proof for /proof.", obs.DefBuckets)
		r.NewCounterFunc("thermbal_proofs_served_total",
			"Inclusion proofs served by /proof.",
			func() float64 { return float64(s.proofsServed.Load()) })
		r.NewCounterFunc("thermbal_proof_errors_total",
			"/proof requests the store refused (unknown key, unsealed tail, tainted segment).",
			func() float64 { return float64(s.proofErrors.Load()) })
		r.NewCounterFunc("thermbal_store_seals_total",
			"Segments sealed into the Merkle chain (rotation, compaction, retro-seal).",
			func() float64 { return float64(s.cfg.Store.Stats().Seals) })
		r.NewCounterFunc("thermbal_store_seal_errors_total",
			"Failed seal attempts (the segment stays unsealed; records remain servable).",
			func() float64 { return float64(s.cfg.Store.Stats().SealErrors) })
		r.NewGaugeFunc("thermbal_store_sealed_segments",
			"Segments sealed under a Merkle root in the provenance manifest.",
			func() float64 { return float64(s.cfg.Store.Stats().SealedSegments) })
		r.NewGaugeFunc("thermbal_store_unsealed_records",
			"Records in the active segment, not yet provable (sealed at the next rotation).",
			func() float64 { return float64(s.cfg.Store.Stats().UnsealedRecords) })
		r.NewGaugeFunc("thermbal_store_tainted_segments",
			"Sealed segments whose recomputed root no longer matches the manifest.",
			func() float64 { return float64(s.cfg.Store.Stats().TaintedSegments) })
	}
	// Recorder drops are engine-side truncation: a capped trace means a
	// run's CSV timeline is incomplete, which an operator should see
	// without grepping logs.
	r.NewCounterFunc("thermbal_trace_dropped_total",
		"Trace samples discarded at recorder buffer caps, process-wide.",
		func() float64 { return float64(trace.TotalDroppedSamples()) },
		obs.L("kind", "samples"))
	r.NewCounterFunc("thermbal_trace_dropped_total",
		"Trace events discarded at recorder buffer caps, process-wide.",
		func() float64 { return float64(trace.TotalDroppedEvents()) },
		obs.L("kind", "events"))
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
	if s.cfg.TimingLog != nil {
		r.NewGaugeFunc("thermbal_timing_log_failed",
			"1 when the timing log hit its sticky write error and stopped recording.",
			func() float64 {
				if s.cfg.TimingLog.Err() != nil {
					return 1
				}
				return 0
			})
		r.NewCounterFunc("thermbal_timing_log_dropped_total",
			"Timing records discarded after the log's sticky write error.",
			func() float64 { return float64(s.cfg.TimingLog.Dropped()) })
	}
	for _, state := range []JobState{JobPending, JobRunning, JobDone, JobFailed, JobCancelled} {
		state := state
		r.NewGaugeFunc("thermbal_jobs", "Async jobs by lifecycle state.",
			func() float64 { return float64(s.jobs.countState(state)) },
			obs.L("state", string(state)))
	}
	// Admission-control families: scrape-time mirrors of the /stats
	// admission block, so shed counts reconcile exactly between the two.
	for reason := 0; reason < numShedReasons; reason++ {
		reason := reason
		r.NewCounterFunc("thermbal_shed_total",
			"Requests refused with 503 + Retry-After, by shed reason.",
			func() float64 { return float64(s.shed[reason].Load()) },
			obs.L("reason", shedReasonNames[reason]))
	}
	r.NewGaugeFunc("thermbal_pending_sim_seconds",
		"Estimated simulated seconds admitted but not yet finished.",
		func() float64 { return s.budget.pendingSimS() })
	for prio := 0; prio < numPriorities; prio++ {
		prio := prio
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

// observeProof records one /proof store lookup. Guarded because the
// histogram is registered only on stores-backed servers; handleProof
// rejects before the lookup when there is no store, so a nil here is
// unreachable in practice.
func (m *serverMetrics) observeProof(d time.Duration) {
	if m.proofDuration != nil {
		m.proofDuration.Observe(d)
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

// StageQuantiles is one latency summary in the /stats latency block:
// observation count plus p50/p95/p99 estimated from the fixed-bucket
// histograms (interpolated within buckets, so they are estimates with
// bucket-width resolution, not exact order statistics).
type StageQuantiles struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// LatencyStats is the /stats latency block: whole-request quantiles
// per endpoint (merged across cache outcomes) and per-stage quantiles.
type LatencyStats struct {
	Run      StageQuantiles `json:"run"`
	Matrix   StageQuantiles `json:"matrix"`
	Queue    StageQuantiles `json:"queue"`
	Coalesce StageQuantiles `json:"coalesce"`
	Execute  StageQuantiles `json:"execute"`
	Encode   StageQuantiles `json:"encode"`
	Store    StageQuantiles `json:"store"`
}

func quantilesOf(hs []*obs.Histogram) StageQuantiles {
	toMs := func(s float64) float64 { return s * 1e3 }
	return StageQuantiles{
		Count: obs.MergedCount(hs),
		P50Ms: toMs(obs.MergedQuantile(hs, 0.50)),
		P95Ms: toMs(obs.MergedQuantile(hs, 0.95)),
		P99Ms: toMs(obs.MergedQuantile(hs, 0.99)),
	}
}

// latency assembles the /stats latency block from the histograms.
func (m *serverMetrics) latency() LatencyStats {
	one := func(h *obs.Histogram) StageQuantiles { return quantilesOf([]*obs.Histogram{h}) }
	return LatencyStats{
		Run:      quantilesOf(m.requests[epRun][:]),
		Matrix:   quantilesOf(m.requests[epMatrix][:]),
		Queue:    one(m.stages[obs.StageQueue]),
		Coalesce: one(m.stages[obs.StageCoalesce]),
		Execute:  one(m.stages[obs.StageExecute]),
		Encode:   one(m.stages[obs.StageEncode]),
		Store:    one(m.stages[obs.StageStore]),
	}
}
