package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/obs"
	"thermbal/internal/request"
	"thermbal/internal/sim"
)

// twoCellSweep is a sub-second two-cell sync sweep on the real engine;
// cellRuns are the direct /run spellings of its cells, in cell order.
const twoCellSweep = `{"scenarios":["sdr-radio"],"policies":["eb","tb"],"delta":3,"warmup_s":0.3,"measure_s":0.5}`

var cellRuns = []string{
	`{"scenario":"sdr-radio","policy":"energy-balance","delta":3,"warmup_s":0.3,"measure_s":0.5}`,
	`{"scenario":"sdr-radio","policy":"thermal-balance","delta":3,"warmup_s":0.3,"measure_s":0.5}`,
}

// TestSyncSweepCachesCells: a sync /matrix runs on the per-cell path,
// so each cell is cached and stored under its own run key — a /run of
// the cell afterwards is a hit carrying the cell's bytes — while the
// sweep itself keeps its X-Cache ladder (miss, hit, and store after a
// restart), and every engine execution shows up once in /stats, in
// the execute-stage histogram and in thermbal_executions_total.
func TestSyncSweepCachesCells(t *testing.T) {
	dir := t.TempDir()
	st1 := openTestStore(t, dir)
	s, ts := newTestServer(t, Config{Store: st1})

	resp, sweepBody := do(t, http.MethodPost, ts.URL+"/matrix", twoCellSweep)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold sweep: %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), sweepBody)
	}
	pairs, err := obs.ParseHeaderValue(resp.Header.Get("X-Timing"))
	if err != nil {
		t.Fatalf("sweep X-Timing %q: %v", resp.Header.Get("X-Timing"), err)
	}
	for _, name := range append(obs.StageNames[:], "total") {
		if _, ok := pairs[name]; !ok {
			t.Errorf("sweep X-Timing missing %q", name)
		}
	}
	if pairs["execute"] <= 0 {
		t.Errorf("cold sweep X-Timing execute = %d µs, want > 0", pairs["execute"])
	}
	var doc request.MatrixDoc
	if err := json.Unmarshal(sweepBody, &doc); err != nil || len(doc.Cells) != 2 {
		t.Fatalf("sweep doc: %v, %d cells", err, len(doc.Cells))
	}
	for i, run := range cellRuns {
		resp, b := do(t, http.MethodPost, ts.URL+"/run", run)
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("cell %d /run X-Cache = %q, want hit", i, got)
		}
		var rd struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(b, &rd); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rd.Result, doc.Cells[i].Result) {
			t.Errorf("cell %d: /run result block differs from the sweep's cell bytes", i)
		}
	}
	if resp, _ := do(t, http.MethodPost, ts.URL+"/matrix", twoCellSweep); resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat sweep X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	if got := s.Stats().Executions; got != 2 {
		t.Errorf("/stats executions = %d, want 2 (one per cell)", got)
	}
	_, metrics := do(t, http.MethodGet, ts.URL+"/metrics", "")
	for _, series := range []string{`thermbal_stage_duration_seconds_count{stage="execute"}`, `thermbal_executions_total`} {
		if got := promValue(t, string(metrics), series); got != 2 {
			t.Errorf("%s = %g, want 2", series, got)
		}
	}

	// A restarted server on the same store serves the sweep from disk.
	s2, ts2 := newTestServer(t, Config{Store: openTestStore(t, dir)})
	resp, warm := do(t, http.MethodPost, ts2.URL+"/matrix", twoCellSweep)
	if got := resp.Header.Get("X-Cache"); got != "store" {
		t.Errorf("restarted sweep X-Cache = %q, want store", got)
	}
	if !bytes.Equal(warm, sweepBody) {
		t.Error("restarted sweep body differs")
	}
	if got := s2.Stats().Executions; got != 0 {
		t.Errorf("restarted sweep executed %d cells, want 0", got)
	}
}

// TestSyncSweepCoalesces: two concurrent identical sync sweeps run the
// cells once; one caller leads ("miss"), the other waits ("coalesced").
func TestSyncSweepCoalesces(t *testing.T) {
	release := make(chan struct{})
	var execs atomic.Int64
	s, ts := newTestServer(t, Config{
		MaxSims: 2,
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			execs.Add(1)
			<-release
			return sim.Result{PolicyName: rc.PolicyName}, nil
		},
	})
	states := make(chan string, 2)
	go func() {
		resp, err := http.Post(ts.URL+"/matrix", "application/json", strings.NewReader(twoCellSweep))
		if err == nil {
			resp.Body.Close()
			states <- resp.Header.Get("X-Cache")
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for execs.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("first sweep never started its cells")
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		resp, err := http.Post(ts.URL+"/matrix", "application/json", strings.NewReader(twoCellSweep))
		if err == nil {
			resp.Body.Close()
			states <- resp.Header.Get("X-Cache")
		}
	}()
	for {
		if _, coalesced := s.flight.counts(); coalesced == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second sweep never joined the first")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	got := map[string]int{}
	for range 2 {
		select {
		case st := <-states:
			got[st]++
		case <-time.After(10 * time.Second):
			t.Fatal("sweep responses never arrived")
		}
	}
	if got["miss"] != 1 || got["coalesced"] != 1 {
		t.Errorf("X-Cache states = %v, want one miss and one coalesced", got)
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("engine ran %d cells, want 2", n)
	}
}

// TestSyncSweepRespectsMaxSims: sweep cells take MaxSims slots like any
// run, so with MaxSims=1 a sync sweep and a concurrent /run never run
// two engine executions at once.
func TestSyncSweepRespectsMaxSims(t *testing.T) {
	gate, stop := make(chan struct{}), make(chan struct{})
	var running, peak, execs atomic.Int64
	_, ts := newTestServer(t, Config{
		MaxSims: 1,
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			execs.Add(1)
			select {
			case <-gate:
			case <-stop: // test failed; unblock the server's shutdown
			}
			running.Add(-1)
			return sim.Result{PolicyName: rc.PolicyName}, nil
		},
	})
	t.Cleanup(func() { close(stop) })
	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for _, c := range []struct{ path, body string }{{"/matrix", twoCellSweep}, {"/run", shortRun}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// Three executions (two cells, one run), admitted one at a time:
	// each waits at the gate alone until released.
	deadline := time.Now().Add(10 * time.Second)
	for i := int64(1); i <= 3; i++ {
		for execs.Load() < i {
			if time.Now().After(deadline) {
				t.Fatalf("execution %d never started", i)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		if r := running.Load(); r != 1 {
			t.Fatalf("%d engine executions running with MaxSims=1", r)
		}
		gate <- struct{}{}
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("response status %d, want 200", code)
		}
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("peak concurrent engine executions = %d, want 1", p)
	}
}

// TestSyncSweepExecutesOnlyMissingCells: cells already cached by
// direct /runs are spliced in, and only the missing cell runs.
func TestSyncSweepExecutesOnlyMissingCells(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	s, ts := newTestServer(t, Config{
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			mu.Lock()
			runs[rc.PolicyName]++
			mu.Unlock()
			return sim.Result{PolicyName: rc.PolicyName}, nil
		},
	})
	for _, run := range cellRuns {
		if resp, b := do(t, http.MethodPost, ts.URL+"/run", run); resp.StatusCode != http.StatusOK {
			t.Fatalf("/run: %d %s", resp.StatusCode, b)
		}
	}
	resp, b := do(t, http.MethodPost, ts.URL+"/matrix",
		`{"scenarios":["sdr-radio"],"policies":["eb","tb","sg"],"delta":3,"warmup_s":0.3,"measure_s":0.5}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("sweep: %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), b)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string]int{"energy-balance": 1, "thermal-balance": 1, "stop-go": 1}
	for pol, n := range want {
		if runs[pol] != n {
			t.Errorf("engine runs = %v, want %v (the cached cells are not re-run)", runs, want)
			break
		}
	}
	if got := s.Stats().Executions; got != 3 {
		t.Errorf("executions = %d, want 3 (two /runs, then only the missing cell)", got)
	}
}
