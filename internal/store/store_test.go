package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// testOpts keeps segments tiny so rotation and compaction trigger with
// a handful of records, and skips fsync for speed.
func testOpts() Options {
	return Options{SegmentBytes: 1 << 10, MaxBytes: 1 << 20, NoSync: true}
}

func key(i int) string { return fmt.Sprintf("%064d", i) }

func body(i, n int) []byte {
	return bytes.Repeat([]byte{byte('a' + i%26)}, n)
}

func mustPut(t *testing.T, s *Store, k string, b []byte) {
	t.Helper()
	if err := s.Put(k, b); err != nil {
		t.Fatalf("put %s: %v", k, err)
	}
}

func mustGet(t *testing.T, s *Store, k string) []byte {
	t.Helper()
	b, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("get %s: ok=%v err=%v", k, ok, err)
	}
	return b
}

// checkIndexMatches asserts that exactly the records in want are live,
// with byte-identical bodies.
func checkIndexMatches(t *testing.T, s *Store, want map[string][]byte) {
	t.Helper()
	if n := len(s.Keys("")); n != len(want) {
		t.Errorf("live records = %d, want %d", n, len(want))
	}
	for k, wb := range want {
		b, ok, err := s.Get(k)
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if !ok {
			t.Errorf("key %s missing after reopen", k)
			continue
		}
		if !bytes.Equal(b, wb) {
			t.Errorf("key %s: body differs after reopen", k)
		}
	}
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 40; i++ {
		k, b := key(i), body(i, 100+i)
		mustPut(t, s, k, b)
		want[k] = b
	}
	// Overwrite a key and delete another: last record wins, tombstone
	// removes.
	mustPut(t, s, key(3), body(3, 7))
	want[key(3)] = body(3, 7)
	if err := s.Delete(key(5)); err != nil {
		t.Fatal(err)
	}
	delete(want, key(5))
	checkIndexMatches(t, s, want)
	st := s.Stats()
	if st.Segments < 2 {
		t.Errorf("segments = %d, want rotation to have happened (>= 2)", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: identical live set, no recovery events.
	s2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkIndexMatches(t, s2, want)
	st = s2.Stats()
	if st.TailTruncated != 0 || st.CorruptSegments != 0 {
		t.Errorf("clean reopen reported recovery: %+v", st)
	}
}

// TestReopenAfterKill reopens without Close — the file state a SIGKILL
// leaves behind — and expects every completed append to survive.
func TestReopenAfterKill(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 25; i++ {
		k, b := key(i), body(i, 200)
		mustPut(t, s, k, b)
		want[k] = b
	}
	// No Close, no Sync: the open handles are simply abandoned.
	s2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkIndexMatches(t, s2, want)

	// The reopened store must keep appending cleanly.
	mustPut(t, s2, key(100), body(1, 64))
	want[key(100)] = body(1, 64)
	checkIndexMatches(t, s2, want)
}

// activeSegment returns the path of the highest-numbered segment file.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("glob segments: %v (%d files)", err, len(names))
	}
	return names[len(names)-1]
}

// TestTruncatedFinalRecordRecovers cuts the active segment mid-record
// (a kill in the middle of an append) at every byte boundary of the
// final frame and expects recovery to drop exactly that record.
func TestTruncatedFinalRecordRecovers(t *testing.T) {
	// Sizes chosen so all records land in one segment.
	opts := Options{SegmentBytes: 1 << 20, MaxBytes: 1 << 24, NoSync: true}
	build := func(t *testing.T, dir string) (map[string][]byte, int64) {
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][]byte{}
		for i := 0; i < 5; i++ {
			k, b := key(i), body(i, 50)
			mustPut(t, s, k, b)
			want[k] = b
		}
		preLast := s.Stats().Bytes
		mustPut(t, s, key(5), body(5, 50))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return want, preLast
	}
	probe, _ := os.MkdirTemp(t.TempDir(), "probe")
	_, preLast := build(t, probe)
	full, err := os.Stat(activeSegment(t, probe))
	if err != nil {
		t.Fatal(err)
	}
	// Every strictly-partial length of the final record, plus a few in
	// between for speed.
	cuts := []int64{preLast, preLast + 1, preLast + recHeaderLen, full.Size() - 5, full.Size() - 1}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			want, _ := build(t, dir)
			seg := activeSegment(t, dir)
			if err := os.Truncate(seg, cut); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen after truncation at %d: %v", cut, err)
			}
			defer s.Close()
			// The final record is gone; everything before it survives.
			checkIndexMatches(t, s, want)
			if _, ok, _ := s.Get(key(5)); ok {
				t.Error("truncated final record still resolves")
			}
			st := s.Stats()
			if cut > preLast && st.TailTruncated != cut-preLast {
				t.Errorf("tail_truncated = %d, want %d", st.TailTruncated, cut-preLast)
			}
			// The repaired store appends cleanly on the truncated
			// boundary and the new record survives another reopen.
			mustPut(t, s, key(5), body(5, 50))
			want[key(5)] = body(5, 50)
			s.Close()
			s2, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			checkIndexMatches(t, s2, want)
			if st := s2.Stats(); st.TailTruncated != 0 {
				t.Errorf("second reopen still truncating: %+v", st)
			}
		})
	}
}

// TestCorruptedCRCMidSegment flips a byte in the middle of a sealed
// segment: replay of that segment stops at the corrupt record, records
// before it and in other segments survive, and the index matches
// exactly the surviving set.
func TestCorruptedCRCMidSegment(t *testing.T) {
	dir := t.TempDir()
	// Big bodies + small segment bound: each segment holds ~3 records.
	opts := Options{SegmentBytes: 1 << 10, MaxBytes: 1 << 24, NoSync: true}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{}
	for i := 0; i < 12; i++ {
		k, b := key(i), body(i, 300)
		mustPut(t, s, k, b)
		bodies[k] = b
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("segments = %d, want >= 3", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt one byte inside the *body* of the second record of the
	// first (sealed) segment. Record 0 and every later segment's
	// records must survive; records 1 and 2 (same segment, at and past
	// the corruption) are dropped.
	names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	seg0 := names[0]
	raw, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	recSize := recHeaderLen + 64 + 300 + 4
	corruptAt := recSize + recHeaderLen + 64 + 10 // 10 bytes into record 1's body
	raw[corruptAt] ^= 0xff
	if err := os.WriteFile(seg0, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	defer s2.Close()
	perSeg := len(raw) / recSize
	want := map[string][]byte{key(0): bodies[key(0)]}
	for i := perSeg; i < 12; i++ {
		want[key(i)] = bodies[key(i)]
	}
	checkIndexMatches(t, s2, want)
	for i := 1; i < perSeg; i++ {
		if _, ok, _ := s2.Get(key(i)); ok {
			t.Errorf("record %d past the corruption still resolves", i)
		}
	}
	st := s2.Stats()
	if st.CorruptSegments != 1 {
		t.Errorf("corrupt_segments = %d, want exactly 1", st.CorruptSegments)
	}
	if st.TailTruncated != 0 {
		t.Errorf("sealed-segment corruption must not truncate: %+v", st)
	}
}

// TestCompactionDropsSupersededAndEvictsOldest drives the log over its
// size budget and checks compaction keeps the newest records, drops
// superseded versions, and never evicts pinned keys.
func TestCompactionDropsSupersededAndEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		SegmentBytes: 2 << 10,
		MaxBytes:     8 << 10,
		NoSync:       true,
		Pinned:       func(k string) bool { return k == "pin" },
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("pin", []byte("journal")); err != nil {
		t.Fatal(err)
	}
	// Phase 1 — rewrite one key many times: the log overflows with
	// superseded versions and compaction must collapse them without
	// evicting anything live.
	for i := 0; i < 60; i++ {
		mustPut(t, s, "hot", body(i, 400))
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction ever triggered by superseded records")
	}
	if st.Evicted != 0 {
		t.Errorf("compacting superseded records evicted %d live ones", st.Evicted)
	}
	if got := mustGet(t, s, "hot"); !bytes.Equal(got, body(59, 400)) {
		t.Error("hot key not at its newest version after compaction")
	}

	// Phase 2 — distinct keys until the live set itself exceeds the
	// budget: the oldest unpinned records go, newest and pinned stay.
	for i := 0; i < 60; i++ {
		mustPut(t, s, key(i), body(i, 400))
	}
	st = s.Stats()
	if st.Bytes > opts.MaxBytes+(2<<10) {
		t.Errorf("log size %d stayed far over budget %d", st.Bytes, opts.MaxBytes)
	}
	if st.Evicted == 0 {
		t.Error("no eviction under a log full of distinct keys")
	}
	if got := mustGet(t, s, "pin"); !bytes.Equal(got, []byte("journal")) {
		t.Error("pinned key lost or corrupted by compaction")
	}
	if got := mustGet(t, s, key(59)); !bytes.Equal(got, body(59, 400)) {
		t.Error("newest key lost by compaction")
	}
	if _, ok, _ := s.Get(key(0)); ok {
		t.Error("oldest key survived eviction while over budget")
	}

	// Everything still holds after a reopen of the compacted layout.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := mustGet(t, s2, "pin"); !bytes.Equal(got, []byte("journal")) {
		t.Error("pinned key lost across reopen")
	}
	if got := mustGet(t, s2, key(59)); !bytes.Equal(got, body(59, 400)) {
		t.Error("newest key lost across reopen")
	}
}

// TestKeysPrefixAndLen covers the journal-scan helper.
func TestKeysPrefixAndLen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPut(t, s, "job/run/a", []byte("1"))
	mustPut(t, s, "job/matrix/b", []byte("2"))
	mustPut(t, s, key(1), body(1, 10))
	got := s.Keys("job/")
	if len(got) != 2 || got[0] != "job/matrix/b" || got[1] != "job/run/a" {
		t.Errorf("Keys(job/) = %v", got)
	}
	if n := len(s.Keys("")); n != 3 {
		t.Errorf("all keys = %d, want 3", n)
	}
}
