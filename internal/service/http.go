package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/obs"
	"thermbal/internal/policy"
	"thermbal/internal/provenance"
	"thermbal/internal/request"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/store"
)

// maxBodyBytes bounds request bodies; simulation requests are tiny.
const maxBodyBytes = 1 << 20

// Handler returns the HTTP API. All responses are JSON; schema
// documents go through request.EncodeDoc so cached, coalesced and fresh
// responses for the same canonical request are byte-identical.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /scenarios", s.handleScenarios)
	mux.HandleFunc("GET /policies", s.handlePolicies)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /matrix", s.handleMatrix)
	mux.HandleFunc("GET /proof", s.handleProof)
	mux.HandleFunc("POST /seal", s.handleSeal)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	return mux
}

// writeJSON marshals v through the shared encoder.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := request.EncodeDoc(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeBody writes a pre-encoded schema document with its cache state.
func writeBody(w http.ResponseWriter, body []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	w.Write(body)
}

// writeTimedBody finalizes the request's timing record and writes the
// body with its X-Cache and X-Timing headers. Total is stamped here —
// just before the first response byte — so the header can carry it;
// the per-stage pairs are the record the request accumulated on its
// way through the cache/flight/execute ladder.
func writeTimedBody(w http.ResponseWriter, body []byte, cacheState string, rec *obs.TimingRecord) {
	rec.Outcome = cacheState
	rec.Total = time.Since(rec.Start)
	var buf [128]byte
	w.Header().Set("X-Timing", string(rec.AppendHeaderValue(buf[:0])))
	writeBody(w, body, cacheState)
}

// finishRequest observes a finished request into the metrics and the
// timing log. Deferred by the /run and /matrix handlers so error
// responses (outcome "error") are recorded too; a record whose
// outcome was never set by a successful write keeps that default.
func (s *Server) finishRequest(ep int, rec *obs.TimingRecord) {
	if rec.Total == 0 {
		rec.Total = time.Since(rec.Start)
	}
	s.metrics.observeRequest(ep, rec)
	if s.cfg.TimingLog != nil {
		s.cfg.TimingLog.Log(rec)
	}
}

// errorDoc is the JSON error envelope. Hint, when present, says how
// to get a request the server will run.
type errorDoc struct {
	Error string `json:"error"`
	Hint  string `json:"hint,omitempty"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorDoc{Error: err.Error()})
}

// decodeJSON reads one JSON value; an empty body decodes to the zero
// value so `curl -X POST .../run` with no payload runs the defaults.
// Decoding is strict — unknown fields, trailing data and oversized
// bodies are all rejected: on a content-addressed cache a silently
// dropped misspelled key ("polcy", "measure") or truncated byte would
// run — and cache — a different simulation than the client intended.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("unexpected data after the request object")
	}
	return nil
}

// writeRequestError maps a decodeJSON failure to its status: 413 for
// an over-limit body, 400 otherwise.
func writeRequestError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// scenariosDoc is the /scenarios response.
type scenariosDoc struct {
	SchemaVersion int             `json:"schema_version"`
	Scenarios     []scenario.Info `json:"scenarios"`
}

// scenarioSpecEntry is one /scenarios?spec=1 entry: the catalogue info
// plus the scenario's declarative spec, ready to edit and POST back as
// an inline "spec" request.
type scenarioSpecEntry struct {
	scenario.Info
	Spec *scenario.Spec `json:"spec,omitempty"`
}

// scenariosSpecDoc is the /scenarios?spec=1 response.
type scenariosSpecDoc struct {
	SchemaVersion int                 `json:"schema_version"`
	Scenarios     []scenarioSpecEntry `json:"scenarios"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("spec") == "1" {
		all := scenario.All()
		entries := make([]scenarioSpecEntry, len(all))
		for i, sc := range all {
			entries[i] = scenarioSpecEntry{Info: sc.Info(), Spec: sc.Spec}
		}
		writeJSON(w, http.StatusOK, scenariosSpecDoc{
			SchemaVersion: experiment.SchemaVersion,
			Scenarios:     entries,
		})
		return
	}
	writeJSON(w, http.StatusOK, scenariosDoc{
		SchemaVersion: experiment.SchemaVersion,
		Scenarios:     scenario.Infos(),
	})
}

// policiesDoc is the /policies response.
type policiesDoc struct {
	SchemaVersion int            `json:"schema_version"`
	Policies      []policy.Entry `json:"policies"`
}

func (s *Server) handlePolicies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, policiesDoc{
		SchemaVersion: experiment.SchemaVersion,
		Policies:      policy.Entries(),
	})
}

// writeOverloadError maps an execute-ladder failure: a shed decision
// becomes 503 + Retry-After (the shed counter was incremented at the
// shed site), a thermal runaway 422 — the request is well-formed but
// describes a die that leaves physics, so a retry cannot help — and
// anything else 500.
func writeOverloadError(w http.ResponseWriter, err error) {
	var shed *shedError
	if errors.As(err, &shed) {
		setRetryAfter(w, shed.retryAfter)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if errors.Is(err, sim.ErrThermalRunaway) {
		writeJSON(w, http.StatusUnprocessableEntity, errorDoc{Error: err.Error(), Hint: runawayHint})
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}

// runawayHint accompanies every 422 thermal-runaway refusal.
const runawayHint = "the package cannot remove the power this workload dissipates at these settings; " +
	"choose a lower-power package or policy, or a smaller die"

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	rec := obs.TimingRecord{Start: time.Now(), Endpoint: "run", Outcome: "error"}
	defer s.finishRequest(epRun, &rec)
	if !s.checkQuota(w, r) {
		return
	}
	var req request.Request
	if err := decodeJSON(w, r, &req); err != nil {
		writeRequestError(w, err)
		return
	}
	canon, rc, err := request.Canonicalize(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if sim := canon.WarmupS + canon.MeasureS; sim > s.cfg.MaxSyncSimS {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%.0f simulated seconds exceeds the synchronous limit of %.0f; submit it to /jobs instead", sim, s.cfg.MaxSyncSimS))
		return
	}
	// The content address is stamped on the response so a client can
	// later ask /proof for this exact body without re-deriving the
	// canonical hash.
	key := canon.Key()
	w.Header().Set("X-Content-Key", key)
	// The request context cancels on client disconnect: this waiter
	// aborts, while the execution itself is detached so coalesced
	// requests and the cache still get the result.
	cls := execClass{prio: prioInteractive, cost: canon.WarmupS + canon.MeasureS}
	body, cacheState, err := s.executeRun(r.Context(), key, cls, canon, rc, &rec)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nobody to answer
		}
		writeOverloadError(w, err)
		return
	}
	writeTimedBody(w, body, cacheState, &rec)
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	rec := obs.TimingRecord{Start: time.Now(), Endpoint: "matrix", Outcome: "error"}
	defer s.finishRequest(epMatrix, &rec)
	if !s.checkQuota(w, r) {
		return
	}
	var req request.MatrixRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeRequestError(w, err)
		return
	}
	canon, err := request.CanonicalizeMatrix(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cells, err := request.MatrixCells(canon)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The sync endpoint is bounded like /run, but over the whole cross
	// product: a bare full-catalogue sweep must go through /jobs.
	cost := sweepCost(cells)
	if cost > s.cfg.MaxSyncSimS {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%.0f simulated seconds across %d cells exceeds the synchronous limit of %.0f; submit it to /jobs instead",
				cost, len(cells), s.cfg.MaxSyncSimS))
		return
	}
	key := canon.Key()
	w.Header().Set("X-Content-Key", key)
	// Interactive cells: a human is waiting on this sweep, so its cells
	// overtake queued job work for MaxSims slots.
	cls := execClass{prio: prioInteractive, cost: cost}
	body, cacheState, err := s.executeSweep(r.Context(), key, canon, cells, cls, &rec, nil)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		writeOverloadError(w, err)
		return
	}
	writeTimedBody(w, body, cacheState, &rec)
}

// proofDoc is the /proof response: a Merkle inclusion proof binding
// one stored result body into the store's sealed, hash-chained
// manifest (see internal/provenance for the wire fields and the
// offline verification procedure; cmd/thermproof consumes this
// document verbatim).
type proofDoc struct {
	SchemaVersion int `json:"schema_version"`
	provenance.Proof
}

// handleProof serves GET /proof?key=<content-address>. Status maps
// the store's refusals: 404 when the key holds no record (or the
// server runs memory-only), 409 when the record still sits in the
// unsealed active segment (POST /seal or wait for rotation, then
// retry), 500 when its segment is tainted — sealed evidence no
// longer matches the log, which a proof must never paper over.
func (s *Server) handleProof(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no durable store configured; provenance proofs need thermservd -data-dir"))
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ?key= (the X-Content-Key of a /run or /matrix response)"))
		return
	}
	t := time.Now()
	p, err := s.cfg.Store.Proof(key)
	s.metrics.proofDuration.Observe(time.Since(t))
	if err != nil {
		s.metrics.proofErrors.Inc()
		switch {
		case errors.Is(err, store.ErrNotFound):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, store.ErrUnsealed):
			writeError(w, http.StatusConflict, err)
		default: // store.ErrTainted and anything unforeseen
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	s.metrics.proofsServed.Inc()
	writeJSON(w, http.StatusOK, proofDoc{SchemaVersion: experiment.SchemaVersion, Proof: p})
}

// handleSeal rotates the active segment early (POST /seal), sealing
// everything written so far into the Merkle chain so /proof can serve
// it immediately instead of waiting for the size-based rotation. It
// answers with the store's stats document, whose chain_len and
// chain_head are the values to pin out of band for thermproof.
// Idempotent: an empty active segment seals nothing.
func (s *Server) handleSeal(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no durable store configured; sealing needs thermservd -data-dir"))
		return
	}
	if err := s.cfg.Store.Seal(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Store.Stats())
}

// handleMetrics serves the Prometheus text exposition of every
// registered instrument.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A write error here means the scraper disconnected; there is
	// nobody left to report it to.
	_ = s.metrics.reg.WritePrometheus(w)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.checkQuota(w, r) {
		return
	}
	var jr JobRequest
	if err := decodeJSON(w, r, &jr); err != nil {
		writeRequestError(w, err)
		return
	}
	j, err := s.jobs.submit(jr, false)
	if err != nil {
		var shed *shedError
		switch {
		case errors.Is(err, errQueueFull):
			s.metrics.shed[shedQueueFull].Inc()
			setRetryAfter(w, shedRetryAfter(s.budget.pendingSimS(), s.cfg.MaxSims))
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.As(err, &shed):
			setRetryAfter(w, shed.retryAfter)
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Location", "/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, s.jobs.status(j))
}

// jobsDoc is the /jobs listing.
type jobsDoc struct {
	SchemaVersion int         `json:"schema_version"`
	Jobs          []JobStatus `json:"jobs"`
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.jobs.list()
	doc := jobsDoc{SchemaVersion: experiment.SchemaVersion, Jobs: make([]JobStatus, len(jobs))}
	for i, j := range jobs {
		st := s.jobs.status(j)
		st.Result = nil // result bodies only on /jobs/{id}
		doc.Jobs[i] = st
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.status(j))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok, cancelled := s.jobs.cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if !cancelled {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; only pending jobs can be cancelled", j.id, j.state))
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.status(j))
}
