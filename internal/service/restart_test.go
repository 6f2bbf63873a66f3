package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/obs"
	"thermbal/internal/request"
	"thermbal/internal/sim"
	"thermbal/internal/store"
)

// openTestStore opens a store on dir with the journal pinned, the way
// cmd/thermservd does.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Pinned: request.JournalPinned, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestartServesStoreHitByteIdentical is the acceptance restart
// test for /run: populate the store, kill the server (no Close on the
// store — the file state a SIGKILL leaves), restart on the same data
// dir and expect the re-request to be a store hit with a
// byte-identical body, no execution and an X-Timing that claims none.
func TestRestartServesStoreHitByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st1 := openTestStore(t, dir)
	_, ts1 := newTestServer(t, Config{Store: st1})
	resp, cold := do(t, http.MethodPost, ts1.URL+"/run", shortRun)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold run: %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	// SIGKILL-equivalent stop: the HTTP server goes away and the store
	// is never Closed or synced; its appends are simply left on disk.
	ts1.Close()

	st2 := openTestStore(t, dir)
	defer st2.Close()
	s2, ts2 := newTestServer(t, Config{Store: st2})
	resp, warm := do(t, http.MethodPost, ts2.URL+"/run", shortRun)
	if got := resp.Header.Get("X-Cache"); got != "store" {
		t.Errorf("restarted /run X-Cache = %q, want store", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("restarted body differs from the pre-kill body:\n%s\nvs\n%s", warm, cold)
	}
	// A store hit skips the engine, and its X-Timing must say so.
	pairs, err := obs.ParseHeaderValue(resp.Header.Get("X-Timing"))
	if err != nil {
		t.Fatalf("store-hit X-Timing %q: %v", resp.Header.Get("X-Timing"), err)
	}
	for _, name := range obs.StageNames {
		if _, ok := pairs[name]; !ok {
			t.Errorf("store-hit X-Timing missing stage %q", name)
		}
	}
	if pairs["execute"] != 0 || pairs["total"] <= 0 {
		t.Errorf("store-hit X-Timing execute=%d total=%d µs, want 0 and > 0", pairs["execute"], pairs["total"])
	}
	stats := s2.Stats()
	if stats.Executions != 0 {
		t.Errorf("restarted server executed %d simulations, want 0", stats.Executions)
	}
	if stats.Store == nil || stats.Store.Serves != 1 || stats.Store.Records == 0 {
		t.Errorf("store stats after restart = %+v", stats.Store)
	}
	// And a second request is now a pure memory hit.
	resp, again := do(t, http.MethodPost, ts2.URL+"/run", shortRun)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second restarted /run X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(again, cold) {
		t.Error("memory-hit body differs")
	}
}

// TestMatrixJobResumesFromCompletedCells is the acceptance restart
// test for sweeps, on the real engine: one cell of a 2-cell sweep is
// populated via /run before a kill; after restart the matrix job
// executes only the missing cell (asserted via the /stats execution
// counter) and still assembles the full, cacheable sweep document.
// One more restart then finds the whole sweep stored, and a
// resubmitted job executes nothing.
func TestMatrixJobResumesFromCompletedCells(t *testing.T) {
	dir := t.TempDir()
	st1 := openTestStore(t, dir)
	_, ts1 := newTestServer(t, Config{Store: st1})
	// This /run is exactly the energy-balance cell of the sweep below:
	// same canonical form, same content address.
	resp, _ := do(t, http.MethodPost, ts1.URL+"/run",
		`{"scenario":"sdr-radio","policy":"eb","warmup_s":0.3,"measure_s":0.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("populate cell: %d", resp.StatusCode)
	}
	ts1.Close() // kill: no store Close

	st2 := openTestStore(t, dir)
	defer st2.Close()
	s2, ts2 := newTestServer(t, Config{Store: st2})
	resp, b := do(t, http.MethodPost, ts2.URL+"/jobs",
		`{"matrix":{"scenarios":["sdr-radio"],"policies":["eb","tb"],"warmup_s":0.3,"measure_s":0.5}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit sweep: %d %s", resp.StatusCode, b)
	}
	var submitted JobStatus
	if err := json.Unmarshal(b, &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.Progress == nil || submitted.Progress.TotalCells != 2 {
		t.Fatalf("submit echo progress = %+v", submitted.Progress)
	}
	done := waitState(t, ts2, submitted.ID, JobDone)
	if p := done.Progress; p == nil ||
		p.CompletedCells != 2 || p.ExecutedCells != 1 || p.CachedCells != 1 {
		t.Errorf("resumed sweep progress = %+v, want 2 completed / 1 executed / 1 cached", done.Progress)
	}
	stats := s2.Stats()
	if stats.Executions != 1 {
		t.Errorf("resumed sweep executed %d cells, want only the missing 1", stats.Executions)
	}

	// The assembled document equals a synchronous /matrix of the same
	// canonical sweep — which is now a pure hit.
	resp, syncBody := do(t, http.MethodPost, ts2.URL+"/matrix",
		`{"scenarios":["sdr-radio"],"policies":["eb","tb"],"warmup_s":0.3,"measure_s":0.5}`)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("sync sweep after job X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(bytes.TrimRight(syncBody, "\n"), bytes.TrimRight(done.Result, "\n")) {
		t.Error("assembled sweep document differs from the sync /matrix body")
	}
	var doc request.MatrixDoc
	if err := json.Unmarshal(done.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) != 2 || doc.Cells[0].Policy != "energy-balance" || doc.Cells[1].Policy != "thermal-balance" {
		t.Errorf("assembled cells = %+v", doc.Cells)
	}
	var sum experiment.Summary
	if err := json.Unmarshal(doc.Cells[0].Result, &sum); err != nil || sum.MeasuredS <= 0 {
		t.Errorf("cell result block: %v (%+v)", err, sum)
	}

	// The hit comparison above reads the job's own assembled bytes
	// back; the invariant is stronger — splicing resumed, partly
	// persisted cell bodies must equal a cold sweep with nothing
	// cached, run by a fresh memory-only server.
	_, tsFresh := newTestServer(t, Config{})
	resp, freshBody := do(t, http.MethodPost, tsFresh.URL+"/matrix",
		`{"scenarios":["sdr-radio"],"policies":["eb","tb"],"warmup_s":0.3,"measure_s":0.5}`)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("fresh sweep X-Cache = %q, want miss", got)
	}
	if !bytes.Equal(bytes.TrimRight(freshBody, "\n"), bytes.TrimRight(done.Result, "\n")) {
		t.Error("assembled sweep document differs from a cold /matrix sweep")
	}

	// Kill and restart once more: the whole sweep is now stored, so a
	// resubmitted job completes both cells without touching the engine.
	ts2.Close()
	st3 := openTestStore(t, dir)
	defer st3.Close()
	s3, ts3 := newTestServer(t, Config{Store: st3})
	resp, b = do(t, http.MethodPost, ts3.URL+"/jobs",
		`{"matrix":{"scenarios":["sdr-radio"],"policies":["eb","tb"],"warmup_s":0.3,"measure_s":0.5}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit stored sweep: %d %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &submitted); err != nil {
		t.Fatal(err)
	}
	done = waitState(t, ts3, submitted.ID, JobDone)
	if p := done.Progress; p == nil || p.CompletedCells != 2 || p.ExecutedCells != 0 {
		t.Errorf("stored sweep progress = %+v, want 2 completed / 0 executed", done.Progress)
	}
	if n := s3.Stats().Executions; n != 0 {
		t.Errorf("stored sweep executed %d cells after restart, want 0", n)
	}
}

// TestKilledMatrixJobAutoResumesAfterRestart covers the journal: a
// sweep killed mid-flight (one of two cells completed) is re-submitted
// automatically by the next process and executes only the missing
// cell.
func TestKilledMatrixJobAutoResumesAfterRestart(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	// The stub finishes energy-balance cells instantly and blocks
	// thermal-balance ones: a deterministic "kill arrived mid-sweep".
	stub := func(rc experiment.RunConfig) (sim.Result, error) {
		if rc.PolicyName == "thermal-balance" {
			<-block
		}
		return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
	}
	st1 := openTestStore(t, dir)
	s1, ts1 := newTestServer(t, Config{Store: st1, runSim: stub})
	_, b := do(t, http.MethodPost, ts1.URL+"/jobs",
		`{"matrix":{"scenarios":["sdr-radio"],"policies":["eb","tb"],"warmup_s":0.3,"measure_s":0.5}}`)
	var submitted JobStatus
	if err := json.Unmarshal(b, &submitted); err != nil {
		t.Fatal(err)
	}
	// Wait until the first cell's result is persisted, then "kill":
	// abandon the server and store with the second cell still blocked.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := waitState(t, ts1, submitted.ID, JobRunning)
		if st.Progress != nil && st.Progress.CompletedCells >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first cell never completed: %+v", st.Progress)
		}
		time.Sleep(time.Millisecond)
	}
	ts1.Close()

	st2 := openTestStore(t, dir)
	var execs2 int64
	s2 := New(Config{
		Store: st2,
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			execs2++
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})
	// The journaled sweep was re-submitted at New; find it and wait.
	jobs := s2.jobs.list()
	if len(jobs) != 1 || !jobs[0].recovered || jobs[0].kind != "matrix" {
		t.Fatalf("recovered jobs = %d", len(jobs))
	}
	select {
	case <-jobs[0].done:
	case <-time.After(10 * time.Second):
		t.Fatal("recovered sweep never finished")
	}
	st := s2.jobs.status(jobs[0])
	if st.State != JobDone || !st.Recovered {
		t.Fatalf("recovered job = %+v", st)
	}
	if p := st.Progress; p == nil || p.ExecutedCells != 1 || p.CachedCells != 1 {
		t.Errorf("recovered sweep progress = %+v, want 1 executed / 1 cached", st.Progress)
	}
	if s2.Stats().Jobs.Recovered != 1 {
		t.Errorf("jobs.recovered = %d, want 1", s2.Stats().Jobs.Recovered)
	}
	// Once done, the journal record is tombstoned: a third process
	// recovers nothing.
	s2.Close()
	if keys := st2.Keys(request.JournalPrefix); len(keys) != 0 {
		t.Errorf("journal not cleared after completion: %v", keys)
	}
	st2.Close()
	s3 := New(Config{Store: openTestStore(t, dir)})
	if n := len(s3.jobs.list()); n != 0 {
		t.Errorf("third process recovered %d jobs, want 0", n)
	}
	s3.Close()
	s1.Close()
	close(block) // release the abandoned first process's blocked cell
	if execs2 != 1 {
		t.Errorf("restarted process executed %d cells, want only the missing 1", execs2)
	}
}

// TestJournalNamingRemovedIntegratorDropped: a journaled sweep
// written by an older build that still offered rk4 cannot be
// re-canonicalized, so the restarting process drops the record and
// counts it as a store error instead of resuming (or panicking on) it.
func TestJournalNamingRemovedIntegratorDropped(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	rec := `{"kind":"matrix","matrix":{"scenarios":["sdr-radio"],"policies":["eb"],"integrator":"rk4"}}`
	if err := st.Put(request.JournalPrefix+"matrix/legacy", []byte(rec)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st = openTestStore(t, dir)
	s := New(Config{Store: st})
	defer s.Close()
	if n := len(s.jobs.list()); n != 0 {
		t.Errorf("recovered %d jobs from an rk4 journal record, want 0", n)
	}
	if got := s.Stats().Store.Errors; got != 1 {
		t.Errorf("store errors = %d, want 1", got)
	}
	if keys := st.Keys(request.JournalPrefix); len(keys) != 0 {
		t.Errorf("rk4 journal record kept: %v", keys)
	}
}

// TestDuplicateJobCancelKeepsSharedJournal: two submissions of the
// same canonical request share one journal record; cancelling one
// duplicate must not strip crash recovery from the other. Only the
// last live duplicate to finish clears the record.
func TestDuplicateJobCancelKeepsSharedJournal(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	st := openTestStore(t, dir)
	defer st.Close()
	_, ts := newTestServer(t, Config{
		Store:      st,
		JobWorkers: 1,
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			<-block
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})
	// A starts running (and blocks); B is the pending duplicate.
	_, b := do(t, http.MethodPost, ts.URL+"/jobs", `{"run":{"delta":3}}`)
	var a JobStatus
	if err := json.Unmarshal(b, &a); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, a.ID, JobRunning)
	_, b = do(t, http.MethodPost, ts.URL+"/jobs", `{"run":{"delta":3}}`)
	var dup JobStatus
	if err := json.Unmarshal(b, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.Key != a.Key {
		t.Fatalf("duplicate keys differ: %s vs %s", dup.Key, a.Key)
	}

	// Cancelling the pending duplicate leaves the shared record: the
	// running job still needs it to survive a kill.
	resp, _ := do(t, http.MethodDelete, ts.URL+"/jobs/"+dup.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel duplicate: %d", resp.StatusCode)
	}
	if keys := st.Keys(request.JournalPrefix); len(keys) != 1 {
		t.Fatalf("journal after duplicate cancel = %v, want the shared record kept", keys)
	}

	// Once the last live holder finishes, the record is cleared.
	close(block)
	waitState(t, ts, a.ID, JobDone)
	if keys := st.Keys(request.JournalPrefix); len(keys) != 0 {
		t.Errorf("journal after last holder finished = %v, want empty", keys)
	}
}

// TestMatrixJobCoalescesWithSyncSweep: a matrix job submitted while an
// identical sync /matrix is in flight joins that sweep instead of
// re-running every cell.
func TestMatrixJobCoalescesWithSyncSweep(t *testing.T) {
	release := make(chan struct{})
	var cellExecs atomic.Int64
	s, ts := newTestServer(t, Config{
		MaxSims: 2,
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			cellExecs.Add(1)
			<-release
			return sim.Result{PolicyName: rc.PolicyName}, nil
		},
	})
	const sweep = `{"scenarios":["sdr-radio"],"policies":["eb","tb"],"warmup_s":0.3,"measure_s":0.5}`
	// Plain client call: t.Fatal is not legal off the test goroutine,
	// and the execution-count poll below is the actual synchronization.
	go http.Post(ts.URL+"/matrix", "application/json", strings.NewReader(sweep))
	deadline := time.Now().Add(10 * time.Second)
	for cellExecs.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("sync sweep never started both cells")
		}
		time.Sleep(time.Millisecond)
	}

	_, b := do(t, http.MethodPost, ts.URL+"/jobs", `{"matrix":`+sweep+`}`)
	var submitted JobStatus
	if err := json.Unmarshal(b, &submitted); err != nil {
		t.Fatal(err)
	}
	// The job's worker must join the sync flight, not start cells.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, coalesced := s.flight.counts(); coalesced == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("matrix job never joined the in-flight sync sweep")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	done := waitState(t, ts, submitted.ID, JobDone)
	if got := cellExecs.Load(); got != 2 {
		t.Errorf("engine ran %d cells, want only the sync sweep's 2 (the job executes none)", got)
	}
	if p := done.Progress; p == nil || p.CompletedCells != 2 || p.CachedCells != 2 || p.ExecutedCells != 0 {
		t.Errorf("coalesced sweep progress = %+v, want 2 completed / 2 cached / 0 executed", done.Progress)
	}
}
