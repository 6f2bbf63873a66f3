package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thermbal/internal/provenance"
)

func provOpts() Options {
	o := testOpts()
	o.Version = "thermbal-engine/test"
	return o
}

// fillSealed writes enough records to roll the active segment at
// least once, so some records live under sealed roots.
func fillSealed(t *testing.T, s *Store, n int) map[string][]byte {
	t.Helper()
	want := map[string][]byte{}
	for i := 0; i < n; i++ {
		b := body(i, 200)
		mustPut(t, s, key(i), b)
		want[key(i)] = b
	}
	return want
}

func TestSealOnRotateAndProofs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, provOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := fillSealed(t, s, 20)
	st := s.Stats()
	if st.SealedSegments == 0 || st.Seals == 0 || st.ChainLen != st.SealedSegments {
		t.Fatalf("no seals after rotation: %+v", st)
	}
	if st.SealedRecords+st.UnsealedRecords != 20 {
		t.Fatalf("records unaccounted for: %+v", st)
	}
	if st.ChainHead == "" {
		t.Fatalf("empty chain head with %d sealed roots", st.ChainLen)
	}
	var sealed, unsealed int
	for k, b := range want {
		p, err := s.Proof(k)
		if errors.Is(err, ErrUnsealed) {
			unsealed++
			continue
		}
		if err != nil {
			t.Fatalf("proof %s: %v", k, err)
		}
		sealed++
		if err := p.VerifyBody(b); err != nil {
			t.Fatalf("proof %s does not verify: %v", k, err)
		}
		if p.Leaf.Version != "thermbal-engine/test" {
			t.Fatalf("proof %s carries version %q", k, p.Leaf.Version)
		}
	}
	if sealed != st.SealedRecords || unsealed != st.UnsealedRecords {
		t.Fatalf("proofs: sealed=%d unsealed=%d, stats %+v", sealed, unsealed, st)
	}
	if _, err := s.Proof("no-such-key"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown key: %v", err)
	}
	// Seal forces the tail under a root; every record becomes provable.
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	for k, b := range want {
		p, err := s.Proof(k)
		if err != nil {
			t.Fatalf("proof %s after Seal: %v", k, err)
		}
		if err := p.VerifyBody(b); err != nil {
			t.Fatalf("proof %s after Seal: %v", k, err)
		}
	}
	if rep, err := s.Verify(); err != nil {
		t.Fatalf("Verify on a clean store: %v (%+v)", err, rep)
	}
}

func TestProofsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, provOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := fillSealed(t, s, 15)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	before := map[string]provenance.Proof{}
	for k := range want {
		p, err := s.Proof(k)
		if err != nil {
			t.Fatal(err)
		}
		before[k] = p
	}
	head := s.Stats().ChainHead
	s.Close()

	s2, err := Open(dir, provOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.TaintedSegments != 0 {
		t.Fatalf("clean reopen tainted segments: %+v", st)
	}
	if st.ChainHead != head {
		t.Fatalf("chain head changed across restart: %s → %s", head, st.ChainHead)
	}
	for k, pb := range before {
		p, err := s2.Proof(k)
		if err != nil {
			t.Fatalf("proof %s after reopen: %v", k, err)
		}
		if p.Root != pb.Root || p.Chain != pb.Chain || p.Index != pb.Index {
			t.Fatalf("proof %s changed across restart:\n  %+v\n  %+v", k, pb, p)
		}
		if err := p.VerifyBody(want[k]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVerifyLocalizesCoordinatedTamper(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, provOpts())
	if err != nil {
		t.Fatal(err)
	}
	fillSealed(t, s, 15)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip a body byte in the first sealed segment and fix the CRC —
	// the frame stays checksum-valid, only the Merkle layer can tell.
	tamperedKey, err := tamper(dir, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(dir)
	if err == nil {
		t.Fatalf("VerifyDir accepted a tampered store: %+v", rep)
	}
	if len(rep.Bad) == 0 {
		t.Fatal("no bad records reported")
	}
	bad := rep.Bad[0]
	if bad.Segment != 1 || bad.Index != 2 || bad.Key != tamperedKey {
		t.Fatalf("localization wrong: %+v (tampered key %s)", bad, tamperedKey)
	}
	if bad.Reason != "body hash mismatch" {
		t.Fatalf("reason = %q", bad.Reason)
	}

	// Opening the store taints the segment: reads still work (the CRC
	// holds), but proofs from it are refused, and nothing "heals" the
	// mismatch — the evidence stays on disk.
	s2, err := Open(dir, provOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.TaintedSegments != 1 {
		t.Fatalf("tainted segments = %d, want 1", st.TaintedSegments)
	}
	if _, err := s2.Proof(tamperedKey); !errors.Is(err, ErrTainted) {
		t.Fatalf("proof from tainted segment: %v", err)
	}
	if rep, err := s2.Verify(); err == nil {
		t.Fatalf("open-store Verify accepted tamper: %+v", rep)
	}
}

func TestVerifyDirIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, provOpts())
	if err != nil {
		t.Fatal(err)
	}
	fillSealed(t, s, 8)
	s.Close()
	// Simulate a torn tail on the active segment.
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	activePath := filepath.Join(dir, fmt.Sprintf("%08d.seg", ids[len(ids)-1]))
	fi, err := os.Stat(activePath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(activePath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("torn"))
	f.Close()
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("a torn active tail is a kill signature, not tamper: %v", err)
	}
	if rep.TailTruncated != 4 {
		t.Fatalf("TailTruncated = %d, want 4", rep.TailTruncated)
	}
	fi2, err := os.Stat(activePath)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() != fi.Size()+4 {
		t.Fatalf("VerifyDir modified the segment: %d → %d bytes", fi.Size()+4, fi2.Size())
	}
}

func TestCompactionResealsDeterministically(t *testing.T) {
	// Two stores, same operations: supersessions, journal puts and
	// deletes in a pinned namespace, then compaction. Roots and chains
	// must come out identical, all survivors provable.
	mk := func(dir string) *Store {
		o := provOpts()
		o.Pinned = func(k string) bool { return strings.HasPrefix(k, "job/") }
		s, err := Open(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			mustPut(t, s, key(i), body(i, 200))
		}
		for i := 0; i < 6; i++ { // supersede half
			mustPut(t, s, key(i), body(i+1, 220))
		}
		for i := 0; i < 4; i++ {
			mustPut(t, s, fmt.Sprintf("job/%03d", i), []byte(fmt.Sprintf(`{"job":%d}`, i)))
		}
		if err := s.Delete("job/003"); err != nil {
			t.Fatal(err)
		}
		if err := s.compact(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := mk(t.TempDir())
	defer a.Close()
	b := mk(t.TempDir())
	defer b.Close()

	sta, stb := a.Stats(), b.Stats()
	if sta.SealedSegments == 0 {
		t.Fatalf("compaction sealed nothing: %+v", sta)
	}
	if sta.UnsealedRecords != 0 {
		t.Fatalf("compaction left unsealed records: %+v", sta)
	}
	// The chains differ in absolute position only if pre-compaction
	// histories differed — they don't here.
	if sta.ChainLen != stb.ChainLen {
		t.Fatalf("chain lengths differ: %d vs %d", sta.ChainLen, stb.ChainLen)
	}
	for i := 0; i < 12; i++ {
		pa, err := a.Proof(key(i))
		if err != nil {
			t.Fatalf("proof %s after compaction: %v", key(i), err)
		}
		pb, err := b.Proof(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if pa.Root != pb.Root || pa.Leaf.BodySHA256 != pb.Leaf.BodySHA256 {
			t.Fatalf("compaction roots not deterministic for %s", key(i))
		}
		if err := pa.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	// The pinned journal namespace stays provable across the reseal.
	for i := 0; i < 3; i++ {
		jk := fmt.Sprintf("job/%03d", i)
		p, err := a.Proof(jk)
		if err != nil {
			t.Fatalf("journal proof %s: %v", jk, err)
		}
		if err := p.VerifyBody([]byte(fmt.Sprintf(`{"job":%d}`, i))); err != nil {
			t.Fatalf("journal proof %s: %v", jk, err)
		}
	}
	if rep, err := a.Verify(); err != nil {
		t.Fatalf("Verify after compaction: %v (%+v)", err, rep)
	}

	// The rewritten layout survives a restart with proofs intact.
	dirA := a.dir
	a.Close()
	a2, err := Open(dirA, func() Options {
		o := provOpts()
		o.Pinned = func(k string) bool { return strings.HasPrefix(k, "job/") }
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if st := a2.Stats(); st.TaintedSegments != 0 {
		t.Fatalf("reopen after compaction tainted: %+v", st)
	}
	p, err := a2.Proof("job/000")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyBody([]byte(`{"job":0}`)); err != nil {
		t.Fatal(err)
	}
}

func TestRetroSealAdoptsLegacyStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, provOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := fillSealed(t, s, 15)
	s.Close()
	// Erase all provenance state, simulating a store written before
	// the layer existed (legacy kind-0 frames are exercised below).
	os.Remove(provenance.ManifestPath(dir))
	mrks, _ := filepath.Glob(filepath.Join(dir, "*.mrk"))
	for _, m := range mrks {
		os.Remove(m)
	}
	s2, err := Open(dir, provOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.SealedSegments == 0 || st.Seals == 0 {
		t.Fatalf("retro-seal did not run: %+v", st)
	}
	if st.TaintedSegments != 0 {
		t.Fatalf("retro-seal tainted segments: %+v", st)
	}
	for k, b := range want {
		p, err := s2.Proof(k)
		if errors.Is(err, ErrUnsealed) {
			continue // active-tail records stay unsealed, as on any open
		}
		if err != nil {
			t.Fatalf("proof %s after retro-seal: %v", k, err)
		}
		if err := p.VerifyBody(b); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := s2.Verify(); err != nil {
		t.Fatalf("Verify after retro-seal: %v (%+v)", err, rep)
	}
}

func TestLegacyKind0RecordsReplayAndSeal(t *testing.T) {
	dir := t.TempDir()
	// Hand-write a segment of legacy (unversioned, kind-0) frames, as
	// a pre-provenance store would have left them.
	legacy := frame(recKindPut, key(1), "", []byte("legacy-body-1"))
	legacy = append(legacy, frame(recKindPut, key(2), "", []byte("legacy-body-2"))...)
	if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, provOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := mustGet(t, s, key(1)); !bytes.Equal(got, []byte("legacy-body-1")) {
		t.Fatalf("legacy body = %q", got)
	}
	// New writes are versioned; legacy records seal with version "".
	mustPut(t, s, key(3), []byte("new-body"))
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	p1, err := s.Proof(key(1))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Leaf.Version != "" {
		t.Fatalf("legacy record sealed with version %q", p1.Leaf.Version)
	}
	if err := p1.VerifyBody([]byte("legacy-body-1")); err != nil {
		t.Fatal(err)
	}
	p3, err := s.Proof(key(3))
	if err != nil {
		t.Fatal(err)
	}
	if p3.Leaf.Version != "thermbal-engine/test" {
		t.Fatalf("new record version = %q", p3.Leaf.Version)
	}
	if rep, err := s.Verify(); err != nil {
		t.Fatalf("Verify on mixed-kind store: %v (%+v)", err, rep)
	}
}

func TestManifestTruncationBreaksChainVerification(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, provOpts())
	if err != nil {
		t.Fatal(err)
	}
	fillSealed(t, s, 20)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	head := s.Stats().ChainHead
	s.Close()
	// Remove the last manifest line (truncation attack). The remaining
	// chain is internally consistent — only the pinned head gives it
	// away — but the now-unsealed segment must still scan clean and
	// the reported head must differ from the pinned one.
	man, err := provenance.LoadManifest(provenance.ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(man) < 2 {
		t.Fatalf("need ≥2 sealed roots, have %d", len(man))
	}
	if err := provenance.WriteManifest(provenance.ManifestPath(dir), man[:len(man)-1]); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("truncated-but-consistent chain should pass a headless scan: %v", err)
	}
	if rep.ChainHead == head {
		t.Fatal("chain head unchanged after manifest truncation")
	}
}
