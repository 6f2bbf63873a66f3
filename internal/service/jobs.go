package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/obs"
	"thermbal/internal/request"
)

// JobState enumerates a job's lifecycle. Pending jobs sit in the
// bounded queue and are the only cancellable state: once a job is
// running its execution is atomic (DELETE returns 409).
type JobState string

const (
	JobPending   JobState = "pending"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// JobRequest is the wire body of POST /jobs: one run or one matrix
// sweep. Kind defaults to "matrix" when only the matrix block is set,
// "run" otherwise (an entirely empty body is a valid default run).
type JobRequest struct {
	Kind   string                 `json:"kind"`
	Run    *request.Request       `json:"run,omitempty"`
	Matrix *request.MatrixRequest `json:"matrix,omitempty"`
}

// JobProgress is the per-cell progress of a matrix job: the sweep is
// decomposed into one task per (scenario, policy) cell, each persisted
// individually, so a poll shows how far the sweep has advanced and how
// much of it was already on disk.
type JobProgress struct {
	// TotalCells is the size of the scenarios × policies cross product.
	TotalCells int `json:"total_cells"`
	// CompletedCells counts cells whose result body is settled.
	CompletedCells int `json:"completed_cells"`
	// ExecutedCells counts cells this job actually ran on the engine;
	// CachedCells counts cells served from the cache, the durable
	// store (a resumed sweep) or another request's in-flight execution.
	ExecutedCells int `json:"executed_cells"`
	CachedCells   int `json:"cached_cells"`
}

// JobStatus is the wire view of one job. Result is embedded once the
// job is done and is byte-identical to the synchronous response for
// the same canonical request (both come out of the shared cache).
type JobStatus struct {
	SchemaVersion int      `json:"schema_version"`
	ID            string   `json:"id"`
	Kind          string   `json:"kind"`
	State         JobState `json:"state"`
	// Key is the content address of the canonical request.
	Key string `json:"key"`
	// Run / Matrix is the canonical request (one of the two, by Kind).
	Run    *request.Request       `json:"run,omitempty"`
	Matrix *request.MatrixRequest `json:"matrix,omitempty"`
	Error  string                 `json:"error,omitempty"`
	// Recovered marks a job re-submitted from the durable job journal
	// after a restart.
	Recovered bool `json:"recovered,omitempty"`
	// Progress is the per-cell progress (matrix jobs only).
	Progress *JobProgress `json:"progress,omitempty"`
	// SubmittedAt / StartedAt / FinishedAt are wall-clock stamps.
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// Result is the schema document, present when State is "done".
	Result json.RawMessage `json:"result,omitempty"`
}

// job is the manager-internal record; its mutable fields are guarded
// by the owning jobManager's mutex.
type job struct {
	id        string
	kind      string
	key       string
	recovered bool
	// cost is the job's estimated simulated seconds (warmup + measure,
	// summed over a sweep's cells), reserved against the server's
	// pending budget from acceptance until any final state.
	cost float64

	run    *request.Request
	matrix *request.MatrixRequest
	rc     experiment.RunConfig
	cells  []request.Cell // matrix jobs: the decomposed sweep

	state     JobState
	errText   string
	body      []byte
	progress  JobProgress
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// jobManager owns the job table and the bounded pending queue.
type jobManager struct {
	mu     sync.Mutex
	byID   map[string]*job
	order  []*job
	queue  chan *job
	seq    int
	retain int // finished jobs kept for polling; older ones are pruned

	// journalPut / journalClear persist and tombstone a job's journal
	// record (nil when the server runs memory-only). Both are invoked
	// while m.mu is held, which is what keeps the journal consistent
	// with the job table: a record exists from the moment a job is
	// accepted until no live job shares its canonical identity — no
	// window where a fast-finishing job's clear can race its own put,
	// or where a duplicate's put interleaves with a sibling's clear.
	// The cost of that guarantee is store I/O under m.mu: while the
	// store compacts (a whole-log rewrite when it crosses its size
	// budget), a journal write blocks and the job API stalls with it.
	// Accepted deliberately — the alternative (async journal writes)
	// would let an accepted job miss the journal across a crash.
	journalPut   func(j *job)
	journalClear func(j *job)

	// reserveCost / releaseCost hook the server's pending
	// simulated-seconds budget (nil in manager-only tests). reserveCost
	// runs at submit, before the job is registered: a refusal sheds the
	// submission with 503 + Retry-After. force bypasses the shed
	// decision for journal-recovered jobs — they were admitted by a
	// previous process, and recovery must not strand them — while still
	// reserving their cost so the budget stays truthful. releaseCost
	// runs when the job reaches any final state.
	reserveCost func(j *job, force bool) error
	releaseCost func(j *job)
}

func (m *jobManager) init(queueDepth, retain int) {
	m.byID = map[string]*job{}
	m.queue = make(chan *job, queueDepth)
	m.retain = retain
}

// maybeClearJournalLocked tombstones j's journal record unless another
// live job shares it: duplicate submissions of the same canonical
// request coexist in the job table but have one journal record, and
// removing it while a duplicate is still pending/running would strip
// that job's crash recovery. The last of the duplicates to finish (or
// be cancelled) clears the record. Callers hold m.mu.
func (m *jobManager) maybeClearJournalLocked(j *job) {
	if m.journalClear == nil {
		return
	}
	for _, other := range m.order {
		if other != j && other.kind == j.kind && other.key == j.key &&
			(other.state == JobPending || other.state == JobRunning) {
			return
		}
	}
	m.journalClear(j)
}

// pruneLocked drops the oldest finished jobs beyond the retention
// bound so the long-running server's job table (and the result bodies
// it holds) stays bounded like the result cache. Pending and running
// jobs are never pruned. Callers hold m.mu.
func (m *jobManager) pruneLocked() {
	finished := 0
	for _, j := range m.order {
		if j.state != JobPending && j.state != JobRunning {
			finished++
		}
	}
	if finished <= m.retain {
		return
	}
	kept := m.order[:0]
	for _, j := range m.order {
		if finished > m.retain && j.state != JobPending && j.state != JobRunning {
			delete(m.byID, j.id)
			finished--
			continue
		}
		kept = append(kept, j)
	}
	// Zero the freed tail so pruned jobs are collectable.
	for i := len(kept); i < len(m.order); i++ {
		m.order[i] = nil
	}
	m.order = kept
}

// submit canonicalizes jr, registers the job and enqueues it; a full
// queue rejects with errQueueFull before anything is registered.
// Matrix jobs are decomposed at submit time into per-cell run tasks,
// so every name resolves (or fails) before the job is accepted.
func (m *jobManager) submit(jr JobRequest, recovered bool) (*job, error) {
	kind := jr.Kind
	if kind == "" {
		if jr.Matrix != nil && jr.Run == nil {
			kind = "matrix"
		} else {
			kind = "run"
		}
	}
	j := &job{kind: kind, recovered: recovered, state: JobPending, submitted: time.Now()}
	switch kind {
	case "run":
		var req request.Request
		if jr.Run != nil {
			req = *jr.Run
		}
		canon, rc, err := request.Canonicalize(req)
		if err != nil {
			return nil, err
		}
		j.run, j.rc, j.key = &canon, rc, canon.Key()
		j.cost = canon.WarmupS + canon.MeasureS
	case "matrix":
		var req request.MatrixRequest
		if jr.Matrix != nil {
			req = *jr.Matrix
		}
		canon, err := request.CanonicalizeMatrix(req)
		if err != nil {
			return nil, err
		}
		cells, err := request.MatrixCells(canon)
		if err != nil {
			return nil, err
		}
		j.matrix, j.cells, j.key = &canon, cells, canon.Key()
		j.progress = JobProgress{TotalCells: len(cells)}
		j.cost = sweepCost(cells)
	default:
		return nil, fmt.Errorf("unknown job kind %q (run | matrix)", kind)
	}
	// The whole job's cost is reserved before it can enter the queue:
	// a backlog already at its simulated-seconds budget sheds new jobs
	// here instead of letting the pending queue grow unboundedly in
	// work (the flat queue depth below remains as a structural
	// backstop).
	if m.reserveCost != nil {
		if err := m.reserveCost(j, recovered); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	m.seq++
	j.id = "j" + strconv.Itoa(m.seq)
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		if m.releaseCost != nil {
			m.releaseCost(j)
		}
		return nil, errQueueFull
	}
	m.byID[j.id] = j
	m.order = append(m.order, j)
	// Journaled before m.mu is released: a worker that receives j off
	// the queue cannot claim — let alone finish — it until this lock is
	// dropped, so the record always exists by the time any final-state
	// transition could try to clear it.
	if m.journalPut != nil {
		m.journalPut(j)
	}
	m.mu.Unlock()
	return j, nil
}

// get returns the job by id.
func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	return j, ok
}

// list returns the jobs in submission order.
func (m *jobManager) list() []*job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*job(nil), m.order...)
}

// claim transitions a queued job to running; it reports false when the
// job was cancelled while pending.
func (m *jobManager) claim(j *job) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.state != JobPending {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	return true
}

// finish records a job's outcome and clears its journal record (when
// no duplicate still relies on it).
func (m *jobManager) finish(j *job, body []byte, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err != nil:
		j.state = JobFailed
		j.errText = err.Error()
	default:
		j.state = JobDone
		j.body = body
	}
	if m.releaseCost != nil {
		m.releaseCost(j)
	}
	m.maybeClearJournalLocked(j)
	m.pruneLocked()
}

// cancel cancels a pending job. Running jobs cannot be interrupted
// (the engine is atomic per run); finished jobs are immutable. It
// returns the job's state after the attempt and whether the cancel
// took effect.
func (m *jobManager) cancel(id string) (*job, bool, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return nil, false, false
	}
	if j.state != JobPending {
		return j, true, false
	}
	j.state = JobCancelled
	j.errText = "cancelled before start"
	j.finished = time.Now()
	if m.releaseCost != nil {
		m.releaseCost(j)
	}
	m.maybeClearJournalLocked(j)
	m.pruneLocked()
	return j, true, true
}

// status snapshots a job's wire view.
func (m *jobManager) status(j *job) JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := JobStatus{
		SchemaVersion: experiment.SchemaVersion,
		ID:            j.id,
		Kind:          j.kind,
		State:         j.state,
		Key:           j.key,
		Run:           j.run,
		Matrix:        j.matrix,
		Error:         j.errText,
		Recovered:     j.recovered,
		SubmittedAt:   j.submitted,
		StartedAt:     j.started,
		FinishedAt:    j.finished,
	}
	if j.kind == "matrix" {
		p := j.progress
		st.Progress = &p
	}
	if j.state == JobDone {
		st.Result = json.RawMessage(j.body)
	}
	return st
}

// cellDone records one settled cell of a matrix job. state is the
// cache state its executeRun returned: "miss" means this job ran the
// engine for the cell; anything else ("hit", "store", "coalesced")
// means the result already existed or was shared.
func (m *jobManager) cellDone(j *job, state string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.progress.CompletedCells++
	if state == "miss" {
		j.progress.ExecutedCells++
	} else {
		j.progress.CachedCells++
	}
}

// allCellsCached marks a matrix job whose whole-sweep body was cached,
// stored or shared from another request's sweep: every cell is settled
// without this job executing anything.
func (m *jobManager) allCellsCached(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.progress.CompletedCells = j.progress.TotalCells
	j.progress.CachedCells = j.progress.TotalCells
}

// countState counts jobs currently in one lifecycle state (the
// /metrics per-state gauges).
func (m *jobManager) countState(state JobState) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.order {
		if j.state == state {
			n++
		}
	}
	return n
}

// jobWorker drains the pending queue until the server closes.
func (s *Server) jobWorker() {
	for {
		select {
		case <-s.base.Done():
			return
		case j := <-s.jobs.queue:
			if !s.jobs.claim(j) {
				continue // cancelled while queued
			}
			// claim stamped j.started under the manager lock; reading
			// the stamps after it returned is ordered. The queue-wait
			// histogram is the job-path analogue of the request path's
			// queue stage: time the work sat accepted-but-unstarted.
			s.metrics.jobQueueWait.Observe(j.started.Sub(j.submitted))
			kind := epRun
			if j.kind == "matrix" {
				kind = epMatrix
			}
			// Bulk class, cost 0: the job reserved its cost at submit,
			// and async work never overtakes interactive requests in
			// the slot queue. The job's timing surfaces through the job
			// histograms (queue wait, duration), so rec is scratch.
			var (
				rec   obs.TimingRecord
				body  []byte
				state string
				err   error
			)
			cls := execClass{prio: prioBulk}
			switch j.kind {
			case "matrix":
				body, state, err = s.executeSweep(s.base, j.key, *j.matrix, j.cells, cls, &rec,
					func(state string) { s.jobs.cellDone(j, state) })
				if err == nil && state != "miss" {
					// Served by the cache, the store or another request's
					// sweep: every cell settled without this job running
					// any.
					s.jobs.allCellsCached(j)
				}
			default:
				body, _, err = s.executeRun(s.base, j.key, cls, *j.run, j.rc, &rec)
			}
			if err != nil && s.base.Err() != nil {
				// The server is shutting down mid-job, not the job
				// failing: leave the journal record (and the job
				// "running" in this dying process) so the next process
				// resumes it from its completed cells.
				continue
			}
			s.jobs.finish(j, body, err)
			s.metrics.jobDuration[kind].Observe(j.finished.Sub(j.started))
		}
	}
}

// ---------------------------------------------------------------------
// The durable job journal.
//
// Unfinished jobs are journaled in the store under the reserved key
// namespace request.JournalPrefix: a record is put at submit and
// deleted (tombstoned) when the job reaches any final state. On New, surviving journal records
// are re-submitted, so a kill mid-sweep resumes after restart — the
// recovered job's completed cells are store hits and only the missing
// cells execute.

// journalKey is the store key of one job's journal record. It is
// derived from the canonical content address, not the job ID: two
// submissions of the same sweep are the same work, and recovery
// re-submits it once.
func journalKey(j *job) string { return request.JournalPrefix + j.kind + "/" + j.key }

// initJournal wires the job manager's journal hooks onto the durable
// store. The hooks run under the manager's mutex (see jobManager), so
// the journal can never disagree with the job table about which work
// is still live.
func (s *Server) initJournal() {
	if s.cfg.Store == nil {
		return
	}
	s.jobs.journalPut = func(j *job) {
		entry, err := request.EncodeDoc(JobRequest{Kind: j.kind, Run: j.run, Matrix: j.matrix})
		if err == nil {
			err = s.cfg.Store.Put(journalKey(j), entry)
		}
		if err != nil {
			s.metrics.storeErrors.Inc() // accepted, but will not survive a restart
		}
	}
	s.jobs.journalClear = func(j *job) {
		if err := s.cfg.Store.Delete(journalKey(j)); err != nil {
			s.metrics.storeErrors.Inc()
		}
	}
}

// recoverJobs re-submits every journaled job that never reached a
// final state in a previous process. Runs from New before the workers
// start. Undecodable journal records are dropped (and counted as
// store errors); a full queue leaves the remaining records journaled
// for the next restart.
func (s *Server) recoverJobs() {
	if s.cfg.Store == nil {
		return
	}
	for _, key := range s.cfg.Store.Keys(request.JournalPrefix) {
		entry, ok, err := s.cfg.Store.Get(key)
		if err != nil || !ok {
			if err != nil {
				s.metrics.storeErrors.Inc()
			}
			continue
		}
		var jr JobRequest
		if err := json.Unmarshal(entry, &jr); err != nil {
			// A journal record that no longer decodes (schema drift,
			// manual edits) cannot be resumed; drop it rather than
			// retrying it forever on every restart.
			s.metrics.storeErrors.Inc()
			s.cfg.Store.Delete(key)
			continue
		}
		_, err = s.jobs.submit(jr, true)
		switch {
		case err == nil:
			s.metrics.jobsRecovered.Inc()
		case errors.Is(err, errQueueFull):
			// Queue pressure is transient: leave the record for the
			// next restart.
		default:
			// Anything else is permanent — the request names
			// scenarios/policies this build no longer registers, so it
			// can never resume; retrying it on every restart forever
			// (pinned against eviction, invisible to the operator)
			// helps nobody. Drop the record and count it.
			s.metrics.storeErrors.Inc()
			s.cfg.Store.Delete(key)
		}
	}
}
