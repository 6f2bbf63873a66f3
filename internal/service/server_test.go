package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/request"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func do(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// shortRun is a sub-second real-time request exercising the real
// engine.
const shortRun = `{"scenario":"sdr-radio","policy":"tb","delta":3,"warmup_s":0.3,"measure_s":0.7}`

// TestConcurrentIdenticalRunsCoalesce is the acceptance check for
// request coalescing: M concurrent identical /run requests execute
// exactly one simulation and every client receives bit-for-bit equal
// bodies. The injected runSim blocks until all waiters are attached,
// so the coalescing window is deterministic; the test runs under
// `go test -race` in CI (make race).
func TestConcurrentIdenticalRunsCoalesce(t *testing.T) {
	release := make(chan struct{})
	var execs atomic.Int64
	s, ts := newTestServer(t, Config{
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			execs.Add(1)
			<-release
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})

	const m = 12
	bodies := make([][]byte, m)
	states := make([]string, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := do(t, http.MethodPost, ts.URL+"/run", shortRun)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			bodies[i] = b
			states[i] = resp.Header.Get("X-Cache")
		}(i)
	}

	// Wait until every follower is attached to the leader's call, then
	// let the single execution finish.
	deadline := time.Now().Add(10 * time.Second)
	for {
		inflight, coalesced := s.flight.counts()
		if inflight == 1 && coalesced == m-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalescing never converged: inflight=%d coalesced=%d", inflight, coalesced)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Errorf("simulations executed = %d, want exactly 1", got)
	}
	var misses, coalesced int
	for i := 1; i < m; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("body %d differs from body 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	for _, st := range states {
		switch st {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("unexpected X-Cache %q", st)
		}
	}
	if misses != 1 || coalesced != m-1 {
		t.Errorf("cache states: %d miss / %d coalesced, want 1 / %d", misses, coalesced, m-1)
	}

	// The result is now cached: one more request is a pure hit with
	// the same bytes and no new execution.
	resp, b := do(t, http.MethodPost, ts.URL+"/run", shortRun)
	if st := resp.Header.Get("X-Cache"); st != "hit" {
		t.Errorf("follow-up X-Cache = %q, want hit", st)
	}
	if !bytes.Equal(b, bodies[0]) {
		t.Error("cached body differs from the coalesced bodies")
	}
	for series, want := range map[string]float64{
		"thermbal_executions_total": 1,
		"thermbal_coalesced_total":  m - 1,
		"thermbal_cache_hits_total": 1,
	} {
		if got := metric(t, s, series); got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
}

// TestCachedResponseByteIdenticalToColdRun is the other acceptance
// check: a cached response must be byte-identical to a cold run of the
// same request — here both against the same server (hit vs miss) and
// across two fresh server instances (cold vs cold), all on the real
// engine.
func TestCachedResponseByteIdenticalToColdRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp1, cold := do(t, http.MethodPost, ts.URL+"/run", shortRun)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", resp1.StatusCode, cold)
	}
	if st := resp1.Header.Get("X-Cache"); st != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", st)
	}
	resp2, cached := do(t, http.MethodPost, ts.URL+"/run", shortRun)
	if st := resp2.Header.Get("X-Cache"); st != "hit" {
		t.Errorf("second X-Cache = %q, want hit", st)
	}
	if !bytes.Equal(cold, cached) {
		t.Errorf("cached body differs from cold body:\n%s\nvs\n%s", cached, cold)
	}

	// A different process would produce the same bytes too; the
	// closest in-test proxy is a brand-new server instance.
	_, ts2 := newTestServer(t, Config{})
	_, cold2 := do(t, http.MethodPost, ts2.URL+"/run", shortRun)
	if !bytes.Equal(cold, cold2) {
		t.Error("cold runs on two server instances differ")
	}

	var doc request.RunDoc
	if err := json.Unmarshal(cold, &doc); err != nil {
		t.Fatalf("decode run doc: %v", err)
	}
	if doc.SchemaVersion != experiment.SchemaVersion || doc.Kind != "run" {
		t.Errorf("doc header = %d/%q", doc.SchemaVersion, doc.Kind)
	}
	if doc.Request.Policy != "thermal-balance" || doc.Request.Scenario != "sdr-radio" {
		t.Errorf("canonical request = %+v", doc.Request)
	}
	if doc.Key != doc.Request.Key() {
		t.Errorf("doc key %s != request key %s", doc.Key, doc.Request.Key())
	}
	if doc.Result.Policy != "thermal-balance" || doc.Result.MeasuredS <= 0 {
		t.Errorf("result block = %+v", doc.Result)
	}
}

func TestCatalogueEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, b := do(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d %s", resp.StatusCode, b)
	}

	var scDoc scenariosDoc
	_, b = do(t, http.MethodGet, ts.URL+"/scenarios", "")
	if err := json.Unmarshal(b, &scDoc); err != nil {
		t.Fatalf("decode scenarios: %v", err)
	}
	found := false
	for _, info := range scDoc.Scenarios {
		if info.Name == "sdr-radio" && info.DefaultPolicy == "thermal-balance" {
			found = true
		}
	}
	if !found || scDoc.SchemaVersion != experiment.SchemaVersion {
		t.Errorf("scenarios doc missing sdr-radio: %s", b)
	}

	var polDoc policiesDoc
	_, b = do(t, http.MethodGet, ts.URL+"/policies", "")
	if err := json.Unmarshal(b, &polDoc); err != nil {
		t.Fatalf("decode policies: %v", err)
	}
	found = false
	for _, e := range polDoc.Policies {
		if e.Name == "thermal-balance" && len(e.Aliases) > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("policies doc missing thermal-balance with aliases: %s", b)
	}

	if resp, _ := do(t, http.MethodGet, ts.URL+"/stats", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /stats = %d, want 404", resp.StatusCode)
	}

	// Errors: unknown names get did-you-mean; oversized sync runs are
	// redirected to /jobs; bad JSON is a 400.
	resp, b = do(t, http.MethodPost, ts.URL+"/run", `{"scenario":"sdr-raido"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "did you mean") {
		t.Errorf("unknown scenario: %d %s", resp.StatusCode, b)
	}
	resp, b = do(t, http.MethodPost, ts.URL+"/run", `{"warmup_s":1e6}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(b), "/jobs") {
		t.Errorf("oversized sync run: %d %s", resp.StatusCode, b)
	}
	resp, _ = do(t, http.MethodPost, ts.URL+"/run", `{"delta":`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %d", resp.StatusCode)
	}
	// A misspelled field name must not silently run (and cache) the
	// default simulation.
	resp, b = do(t, http.MethodPost, ts.URL+"/run", `{"polcy":"eb"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "polcy") {
		t.Errorf("unknown field: %d %s", resp.StatusCode, b)
	}
	// Removed integrators are refused, naming the supported ones.
	for _, scheme := range []string{"rk4", "rk4-adaptive", "adaptive"} {
		for _, c := range []struct{ path, body string }{
			{"/run", `{"integrator":"` + scheme + `"}`},
			{"/matrix", `{"scenarios":["sdr-radio"],"policies":["eb"],"integrator":"` + scheme + `"}`},
		} {
			resp, b = do(t, http.MethodPost, ts.URL+c.path, c.body)
			if resp.StatusCode != http.StatusBadRequest ||
				!strings.Contains(string(b), "euler") || !strings.Contains(string(b), "expm") {
				t.Errorf("%s integrator %s: %d %s", c.path, scheme, resp.StatusCode, b)
			}
		}
	}
	// A queue capacity past the spec's bound is refused on both paths:
	// the sink could never fill its prefill, and the run would report
	// zero deadlines.
	for _, c := range []struct{ path, body string }{
		{"/run", `{"queue_cap":65537}`},
		{"/matrix", `{"scenarios":["sdr-radio"],"policies":["eb"],"queue_cap":65537}`},
	} {
		resp, b = do(t, http.MethodPost, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "queue capacity") {
			t.Errorf("%s queue_cap 65537: %d %s", c.path, resp.StatusCode, b)
		}
	}
	// An inline spec whose sink prefill exceeds the sink queue's
	// capacity could never play: refused on /run and /jobs, never run
	// or cached.
	sc, err := scenario.Lookup("sdr-radio")
	if err != nil {
		t.Fatal(err)
	}
	sp := sc.Spec
	sp.Graph.Sink.Prefill = 40
	spec, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, body string }{
		{"/run", `{"spec":` + string(spec) + `}`},
		{"/jobs", `{"run":{"spec":` + string(spec) + `}}`},
	} {
		resp, b = do(t, http.MethodPost, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "graph.sink.prefill") {
			t.Errorf("%s prefill 40 on 11-frame queues: %d %s", c.path, resp.StatusCode, b)
		}
	}
	// So must trailing data — two concatenated objects would otherwise
	// silently run only the first.
	resp, _ = do(t, http.MethodPost, ts.URL+"/run", `{"policy":"tb"}{"policy":"eb"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing data: %d, want 400", resp.StatusCode)
	}
	// Oversized bodies are a clean 413, never a silent truncation.
	resp, _ = do(t, http.MethodPost, ts.URL+"/run",
		`{"scenario":"`+strings.Repeat("x", maxBodyBytes)+`"}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", resp.StatusCode)
	}
}

// TestMaxSimsBoundsConcurrentExecutions: with MaxSims=1, two distinct
// in-flight requests execute one at a time — the second holds its slot
// wait instead of running a second concurrent engine execution.
func TestMaxSimsBoundsConcurrentExecutions(t *testing.T) {
	release := make(chan struct{})
	var execs atomic.Int64
	s, ts := newTestServer(t, Config{
		MaxSims: 1,
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			execs.Add(1)
			<-release
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})
	var wg sync.WaitGroup
	for _, d := range []string{"3", "4"} {
		wg.Add(1)
		go func(d string) {
			defer wg.Done()
			do(t, http.MethodPost, ts.URL+"/run", `{"delta":`+d+`}`)
		}(d)
	}
	// Both flights register, but only one may hold the execution slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if inflight, _ := s.flight.counts(); inflight == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flights never registered")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := execs.Load(); got != 1 {
		t.Fatalf("concurrent executions with MaxSims=1 = %d, want 1", got)
	}
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 2 {
		t.Errorf("total executions = %d, want 2", got)
	}
}

// TestMatrixSyncBound: the sync endpoint rejects sweeps whose summed
// simulated seconds exceed the /run limit — a bare full-catalogue
// sweep must go through /jobs.
func TestMatrixSyncBound(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSyncSimS: 10})
	resp, b := do(t, http.MethodPost, ts.URL+"/matrix",
		`{"scenarios":["sdr-radio"],"policies":["eb","tb"],"warmup_s":3,"measure_s":3}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(b), "/jobs") {
		t.Errorf("oversized sync matrix: %d %s", resp.StatusCode, b)
	}
	// An empty body is the full catalogue at default phases — far over
	// any reasonable sync limit.
	resp, b = do(t, http.MethodPost, ts.URL+"/matrix", "")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("bare full-catalogue matrix: %d %s", resp.StatusCode, b)
	}
}

func TestJobRetentionPrunesFinished(t *testing.T) {
	_, ts := newTestServer(t, Config{
		JobWorkers:   1,
		JobRetention: 2,
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})
	ids := make([]string, 4)
	for i := range ids {
		// Distinct deltas so every job is a distinct execution.
		_, b := do(t, http.MethodPost, ts.URL+"/jobs",
			`{"run":{"delta":`+string(rune('1'+i))+`}}`)
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		waitState(t, ts, st.ID, JobDone)
	}
	var listing jobsDoc
	_, b := do(t, http.MethodGet, ts.URL+"/jobs", "")
	if err := json.Unmarshal(b, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 2 ||
		listing.Jobs[0].ID != ids[2] || listing.Jobs[1].ID != ids[3] {
		t.Errorf("retained jobs = %s, want the 2 newest (%s, %s)", b, ids[2], ids[3])
	}
	resp, _ := do(t, http.MethodGet, ts.URL+"/jobs/"+ids[0], "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pruned job poll: %d, want 404", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/jobs/"+ids[3], "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("retained job poll: %d, want 200", resp.StatusCode)
	}
}

func TestMatrixEndpointCachesSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"scenarios":["sdr-radio"],"policies":["eb","tb"],"warmup_s":0.3,"measure_s":0.5}`
	resp, b1 := do(t, http.MethodPost, ts.URL+"/matrix", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matrix: %d %s", resp.StatusCode, b1)
	}
	var doc request.MatrixDoc
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatalf("decode matrix doc: %v", err)
	}
	if doc.Kind != "matrix" || len(doc.Cells) != 2 {
		t.Errorf("matrix doc = kind %q, %d cells", doc.Kind, len(doc.Cells))
	}
	if doc.Cells[0].Policy != "energy-balance" || doc.Cells[1].Policy != "thermal-balance" {
		t.Errorf("cell order: %+v", doc.Cells)
	}
	resp, b2 := do(t, http.MethodPost, ts.URL+"/matrix", body)
	if st := resp.Header.Get("X-Cache"); st != "hit" {
		t.Errorf("repeat matrix X-Cache = %q, want hit", st)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("cached matrix body differs")
	}
}

func TestJobLifecycle(t *testing.T) {
	gate := make(chan struct{})
	var execs atomic.Int64
	s, ts := newTestServer(t, Config{
		JobWorkers: 1,
		QueueDepth: 1,
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			execs.Add(1)
			<-gate
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})

	// Job A occupies the single worker.
	resp, b := do(t, http.MethodPost, ts.URL+"/jobs", `{"run":{"delta":3}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %d %s", resp.StatusCode, b)
	}
	var a JobStatus
	if err := json.Unmarshal(b, &a); err != nil {
		t.Fatal(err)
	}
	if a.Kind != "run" || a.Run == nil || a.Run.Policy != "thermal-balance" || a.Key == "" {
		t.Errorf("submit echo = %s", b)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+a.ID {
		t.Errorf("Location = %q", loc)
	}
	waitState(t, ts, a.ID, JobRunning)

	// Job B queues behind it; the queue (depth 1) is now full.
	_, b = do(t, http.MethodPost, ts.URL+"/jobs", `{"run":{"delta":4}}`)
	var bStat JobStatus
	if err := json.Unmarshal(b, &bStat); err != nil {
		t.Fatal(err)
	}
	resp, _ = do(t, http.MethodPost, ts.URL+"/jobs", `{"run":{"delta":5}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit beyond queue depth: %d, want 503", resp.StatusCode)
	}

	// Cancel the pending B; cancelling again conflicts.
	resp, _ = do(t, http.MethodDelete, ts.URL+"/jobs/"+bStat.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cancel pending: %d", resp.StatusCode)
	}
	waitState(t, ts, bStat.ID, JobCancelled)
	resp, _ = do(t, http.MethodDelete, ts.URL+"/jobs/"+bStat.ID, "")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel cancelled: %d, want 409", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodDelete, ts.URL+"/jobs/nope", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown: %d, want 404", resp.StatusCode)
	}

	// Release the worker; A completes and embeds its result.
	close(gate)
	aDone := waitState(t, ts, a.ID, JobDone)
	if len(aDone.Result) == 0 {
		t.Fatal("done job carries no result")
	}

	// The job result and a synchronous /run of the same request are
	// the same document out of the shared cache — and execute nothing
	// new. (Embedding in the status envelope strips the framing
	// newline EncodeDoc appends, so compare modulo that.)
	resp, runBody := do(t, http.MethodPost, ts.URL+"/run", `{"delta":3}`)
	if st := resp.Header.Get("X-Cache"); st != "hit" {
		t.Errorf("sync after job X-Cache = %q, want hit", st)
	}
	if !bytes.Equal(bytes.TrimRight(runBody, "\n"), bytes.TrimRight(aDone.Result, "\n")) {
		t.Errorf("job result differs from sync body:\n%s\nvs\n%s", aDone.Result, runBody)
	}
	if got := execs.Load(); got != 1 {
		t.Errorf("executions = %d, want 1 (B cancelled, sync run cached)", got)
	}

	// The listing shows both jobs, without result bodies.
	var listing jobsDoc
	_, b = do(t, http.MethodGet, ts.URL+"/jobs", "")
	if err := json.Unmarshal(b, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 2 {
		t.Errorf("listing has %d jobs, want 2", len(listing.Jobs))
	}
	for _, j := range listing.Jobs {
		if len(j.Result) != 0 {
			t.Errorf("listing embeds result for %s", j.ID)
		}
	}
	if done, cancelled := metric(t, s, `thermbal_jobs{state="done"}`), metric(t, s, `thermbal_jobs{state="cancelled"}`); done != 1 || cancelled != 1 {
		t.Errorf("jobs done/cancelled = %g/%g, want 1/1", done, cancelled)
	}

	// Unknown kind is rejected at submit time.
	resp, _ = do(t, http.MethodPost, ts.URL+"/jobs", `{"kind":"sweep"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind: %d, want 400", resp.StatusCode)
	}
}

// waitState polls /jobs/{id} until the job reaches want.
func waitState(t *testing.T, ts *httptest.Server, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, b := do(t, http.MethodGet, ts.URL+"/jobs/"+id, "")
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("decode job status: %v (%s)", err, b)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMatrixJob runs an async matrix sweep end to end on the real
// engine and checks it matches the synchronous /matrix bytes.
func TestMatrixJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"matrix":{"scenarios":["sdr-radio"],"policies":["eb"],"warmup_s":0.3,"measure_s":0.5}}`
	resp, b := do(t, http.MethodPost, ts.URL+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit matrix job: %d %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Kind != "matrix" || st.Matrix == nil {
		t.Fatalf("matrix job echo = %s", b)
	}
	done := waitState(t, ts, st.ID, JobDone)
	_, syncBody := do(t, http.MethodPost, ts.URL+"/matrix",
		`{"scenarios":["sdr-radio"],"policies":["energy-balance"],"warmup_s":0.3,"measure_s":0.5}`)
	if !bytes.Equal(bytes.TrimRight(syncBody, "\n"), bytes.TrimRight(done.Result, "\n")) {
		t.Errorf("matrix job result differs from sync body")
	}
}

func TestSuggestHelper(t *testing.T) {
	// Sanity on the shared error path: close misspellings of every
	// registered scenario name canonicalize to a suggestion.
	_, _, err := request.Canonicalize(request.Request{Scenario: "pipelin-d8"})
	if err == nil || !strings.Contains(err.Error(), `"pipeline-d8"`) {
		t.Errorf("pipeline typo: %v", err)
	}
	// And far-off names fall back to the plain catalogue listing.
	_, _, err = request.Canonicalize(request.Request{Scenario: "zzzzzzzzzz"})
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Errorf("far-off name still suggested: %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "sdr-radio") {
		t.Errorf("catalogue missing from error: %v", err)
	}
}

// TestUnknownScenarioRevealsNoFiles: the service resolves scenario
// names against the registry alone, so a path to an existing file and a
// path to nothing get the same refusal, and neither names a CLI flag.
// A reply that differed would let any client probe the server's
// filesystem.
func TestUnknownScenarioRevealsNoFiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dir := t.TempDir()
	existing := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(existing, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "none.json")
	for _, c := range []struct{ path, body string }{
		{"/run", `{"scenario":%q}`},
		{"/matrix", `{"scenarios":[%q],"policies":["eb"]}`},
	} {
		var replies []string
		for _, name := range []string{existing, missing} {
			resp, b := do(t, http.MethodPost, ts.URL+c.path, fmt.Sprintf(c.body, name))
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: %d, want 400", c.path, name, resp.StatusCode)
			}
			if strings.Contains(string(b), "-scenario-file") {
				t.Errorf("%s %s: reply names a CLI flag: %s", c.path, name, b)
			}
			replies = append(replies, strings.ReplaceAll(string(b), name, "<path>"))
		}
		if replies[0] != replies[1] {
			t.Errorf("%s: an existing file and a missing one get different replies:\n%s\n%s", c.path, replies[0], replies[1])
		}
	}
}
