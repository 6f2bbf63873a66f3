package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/obs"
	"thermbal/internal/provenance"
	"thermbal/internal/request"
	"thermbal/internal/store"
)

// openProvStore opens a store the way cmd/thermservd does for a
// provenance-enabled server: journal pinned and the engine version
// stamped into every record.
func openProvStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{
		Pinned:  request.JournalPinned,
		Version: experiment.EngineVersion,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

var keyRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// getProof fetches /proof?key= and decodes the document on 200.
func getProof(t *testing.T, base, key string) (int, proofDoc, []byte) {
	t.Helper()
	resp, body := do(t, http.MethodGet, base+"/proof?key="+key, "")
	var doc proofDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("proof body: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, doc, body
}

// TestProofEndpointEndToEnd is the acceptance test for the /proof
// surface: a /run body's X-Content-Key yields a verifiable inclusion
// proof once sealed, /seal answers with the chain head to pin, the
// 409/404 refusals map correctly, the /metrics counters reconcile, and
// everything survives a restart byte-identically.
func TestProofEndpointEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st1 := openProvStore(t, dir)
	_, ts1 := newTestServer(t, Config{Store: st1})

	resp, runBody := do(t, http.MethodPost, ts1.URL+"/run", shortRun)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run: %d: %s", resp.StatusCode, runBody)
	}
	key := resp.Header.Get("X-Content-Key")
	if !keyRE.MatchString(key) {
		t.Fatalf("X-Content-Key = %q, want 64 hex chars", key)
	}

	// Before any seal the record sits in the active segment: 409.
	if code, _, body := getProof(t, ts1.URL, key); code != http.StatusConflict {
		t.Fatalf("pre-seal /proof = %d, want 409: %s", code, body)
	}

	resp, sealBody := do(t, http.MethodPost, ts1.URL+"/seal", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/seal: %d: %s", resp.StatusCode, sealBody)
	}
	var sealed store.Stats
	if err := json.Unmarshal(sealBody, &sealed); err != nil {
		t.Fatalf("decode /seal: %v", err)
	}
	if sealed.ChainLen < 1 || sealed.ChainHead != st1.Stats().ChainHead {
		t.Errorf("/seal chain_len %d, chain_head %q; want >= 1 and the store's head %q",
			sealed.ChainLen, sealed.ChainHead, st1.Stats().ChainHead)
	}

	code, doc, raw := getProof(t, ts1.URL, key)
	if code != http.StatusOK {
		t.Fatalf("post-seal /proof = %d: %s", code, raw)
	}
	if doc.SchemaVersion != experiment.SchemaVersion {
		t.Errorf("proof schema_version = %d, want %d", doc.SchemaVersion, experiment.SchemaVersion)
	}
	if doc.Leaf.Key != key {
		t.Errorf("proof leaf key = %q, want %q", doc.Leaf.Key, key)
	}
	if doc.Leaf.Version != experiment.EngineVersion {
		t.Errorf("proof engine_version = %q, want %q", doc.Leaf.Version, experiment.EngineVersion)
	}
	if err := doc.Proof.VerifyBody(runBody); err != nil {
		t.Errorf("proof does not verify against the served body: %v", err)
	}
	// A proof for a different body must fail.
	if err := doc.Proof.VerifyBody(append([]byte(nil), raw...)); err == nil {
		t.Error("proof verified a body it does not commit to")
	}

	// Unknown key → 404; missing key → 400 (before the store is asked).
	if code, _, _ := getProof(t, ts1.URL, strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Errorf("unknown key /proof = %d, want 404", code)
	}
	if resp, _ := do(t, http.MethodGet, ts1.URL+"/proof", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("keyless /proof = %d, want 400", resp.StatusCode)
	}

	sst := st1.Stats()
	if sst.SealedSegments < 1 {
		t.Errorf("sealed_segments = %d after /seal, want >= 1", sst.SealedSegments)
	}
	_, mbody := do(t, http.MethodGet, ts1.URL+"/metrics", "")
	text := string(mbody)
	for series, want := range map[string]float64{
		"thermbal_proofs_served_total":          1,
		"thermbal_proof_errors_total":           2,
		"thermbal_proof_duration_seconds_count": 3, // 409 + 200 + 404 lookups
		"thermbal_store_sealed_segments":        float64(sst.SealedSegments),
		"thermbal_store_seals_total":            float64(sst.Seals),
		"thermbal_store_chain_length":           float64(sst.ChainLen),
		"thermbal_store_unsealed_records":       0,
		"thermbal_store_tainted_segments":       0,
	} {
		if got := promValue(t, text, series); got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}

	// Restart on the same data dir (no store close: kill semantics).
	// The store-served body must carry the same key, and the proof must
	// come back bit-identical — same root, same chain position.
	ts1.Close()
	st2 := openProvStore(t, dir)
	defer st2.Close()
	s2, ts2 := newTestServer(t, Config{Store: st2})
	resp, warmBody := do(t, http.MethodPost, ts2.URL+"/run", shortRun)
	if got := resp.Header.Get("X-Cache"); got != "store" {
		t.Fatalf("restarted X-Cache = %q, want store", got)
	}
	if got := resp.Header.Get("X-Content-Key"); got != key {
		t.Errorf("restarted X-Content-Key = %q, want %q", got, key)
	}
	code, doc2, raw2 := getProof(t, ts2.URL, key)
	if code != http.StatusOK {
		t.Fatalf("restarted /proof = %d: %s", code, raw2)
	}
	if doc2.Root != doc.Root || doc2.Chain != doc.Chain || doc2.Index != doc.Index {
		t.Errorf("restarted proof differs: root %s chain %s index %d, want %s/%s/%d",
			doc2.Root, doc2.Chain, doc2.Index, doc.Root, doc.Chain, doc.Index)
	}
	// A saved /proof body is what cmd/thermproof -proof reads: a bare
	// provenance.Proof that commits to the served bytes.
	var saved provenance.Proof
	if err := json.Unmarshal(raw2, &saved); err != nil {
		t.Fatalf("decode saved proof: %v", err)
	}
	if err := saved.VerifyBody(warmBody); err != nil {
		t.Errorf("restarted proof does not verify: %v", err)
	}
	if sealed, tainted := metric(t, s2, "thermbal_store_sealed_segments"), metric(t, s2, "thermbal_store_tainted_segments"); sealed < 1 || tainted != 0 {
		t.Errorf("restarted store: %g sealed, %g tainted segments; want >= 1 sealed, none tainted", sealed, tainted)
	}
	// The directory the service wrote passes the offline scan
	// cmd/thermproof runs.
	if rep, err := store.VerifyDir(dir); err != nil || len(rep.Bad) != 0 {
		t.Errorf("offline verification of the served store: %v (%d bad records)", err, len(rep.Bad))
	}
}

// TestMatrixContentKeyAndProof: /matrix responses carry their sweep
// key, and the assembled sweep body itself is provable after a seal.
func TestMatrixContentKeyAndProof(t *testing.T) {
	st := openProvStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, Config{Store: st})

	matrixReq := `{"scenarios":["sdr-radio"],"policies":["none","tb"],"delta":3,"warmup_s":0.2,"measure_s":0.4}`
	resp, body := do(t, http.MethodPost, ts.URL+"/matrix", matrixReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/matrix: %d: %s", resp.StatusCode, body)
	}
	key := resp.Header.Get("X-Content-Key")
	if !keyRE.MatchString(key) {
		t.Fatalf("matrix X-Content-Key = %q, want 64 hex chars", key)
	}
	// The sweep's address is its own, not one of its cells'.
	cellResp, _ := do(t, http.MethodPost, ts.URL+"/run",
		`{"scenario":"sdr-radio","policy":"tb","delta":3,"warmup_s":0.2,"measure_s":0.4}`)
	if cellKey := cellResp.Header.Get("X-Content-Key"); !keyRE.MatchString(cellKey) || cellKey == key {
		t.Errorf("cell X-Content-Key = %q, sweep key %q; want distinct content addresses", cellKey, key)
	}
	if resp, b := do(t, http.MethodPost, ts.URL+"/seal", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("/seal: %d: %s", resp.StatusCode, b)
	}
	code, doc, raw := getProof(t, ts.URL, key)
	if code != http.StatusOK {
		t.Fatalf("matrix /proof = %d: %s", code, raw)
	}
	if err := doc.Proof.VerifyBody(body); err != nil {
		t.Errorf("matrix proof does not verify against the sweep body: %v", err)
	}
}

// TestProofRefusedMemoryOnly: without a store, /proof and /seal are
// 404s, and /metrics renders no proof or store families at all.
func TestProofRefusedMemoryOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := do(t, http.MethodGet, ts.URL+"/proof?key="+strings.Repeat("0", 64), ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("memory-only /proof = %d, want 404", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPost, ts.URL+"/seal", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("memory-only /seal = %d, want 404", resp.StatusCode)
	}
	_, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if text := string(body); strings.Contains(text, "thermbal_proof") {
		t.Error("/metrics renders proof series on a store-less server")
	}
}

// failWriter fails every write, driving the CSV logger's sticky error.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestDropCountersInMetrics: a failed timing log surfaces as the
// failed gauge plus a dropped-records counter instead of failing
// requests.
func TestDropCountersInMetrics(t *testing.T) {
	log := obs.NewCSVLogger(failWriter{}, true) // header write trips the sticky error
	_, ts := newTestServer(t, Config{TimingLog: log})
	do(t, http.MethodPost, ts.URL+"/run", shortRun)
	do(t, http.MethodPost, ts.URL+"/run", shortRun)

	_, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	text := string(body)
	if v := promValue(t, text, "thermbal_timing_log_failed"); v != 1 {
		t.Errorf("timing_log_failed = %g, want 1", v)
	}
	if v := promValue(t, text, "thermbal_timing_log_dropped_total"); v != 2 {
		t.Errorf("timing_log_dropped_total = %g, want 2 (both /run records)", v)
	}
}

// TestObserveProofZeroAllocs: proof bookkeeping on the serving path —
// one histogram observation and one counter increment — allocates
// nothing, like the request path it rides next to.
func TestObserveProofZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st := openProvStore(t, t.TempDir())
	defer st.Close()
	s := New(Config{Store: st})
	defer s.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		s.metrics.proofDuration.Observe(3 * time.Millisecond)
		s.metrics.proofsServed.Inc()
	})
	if allocs != 0 {
		t.Errorf("proof bookkeeping allocates %.1f times per call, want 0", allocs)
	}
}
