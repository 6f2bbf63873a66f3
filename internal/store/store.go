// Package store is a durable, content-addressed result store: an
// append-only log of (key, body) documents on local disk, designed to
// sit underneath the service's in-memory LRU so simulation results
// survive process restarts.
//
// Layout: a data directory holds numbered segment files
// (00000001.seg, 00000002.seg, ...). Writes always append CRC-framed
// records to the highest-numbered (active) segment; when the active
// segment exceeds the rotation size a new one is started. The full
// key → location index lives in memory and is rebuilt on Open by
// scanning every segment in order, newest record per key winning.
// There is no in-place mutation anywhere, which is what makes recovery
// simple: after a kill, the only possible damage is a partial record
// at the tail of the active segment, and Open truncates it away. A
// corrupted record in the middle of a segment (bit rot, torn sector)
// fails its CRC; scanning of that segment stops there and every record
// up to the corruption survives.
//
// The store is content-addressed in the same sense as the service
// cache: callers derive keys from the canonical request (the
// thermbal/run/v1 SHA-256 scheme), so equal keys always carry equal
// bodies and re-putting a key is idempotent. A small mutable namespace
// (the service's job journal) is supported through Delete, which
// appends a tombstone record; compaction drops superseded records and
// tombstones, and — when the live set still exceeds the size budget —
// evicts the oldest unpinned records, oldest-write-first.
//
// On top of the CRC frames (which catch accidental damage) sits a
// provenance layer that catches deliberate damage: every record is a
// Merkle leaf, every segment gets a root when it is sealed (rotation,
// compaction, or Seal), and sealed roots are hash-chained into
// manifest.prov — see package provenance. Proof serves per-record
// inclusion proofs, Verify / VerifyDir re-derive everything from the
// raw bytes and localize the first divergence.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"thermbal/internal/provenance"
)

// Frame layout, little-endian:
//
//	u32 keyLen | u32 bodyLen | u8 kind | key | body | u32 crc
//
// The CRC (Castagnoli) covers everything before it. Length fields are
// validated against hard bounds before any allocation, so a corrupted
// length cannot make recovery allocate gigabytes.
const (
	recHeaderLen = 4 + 4 + 1
	recKindPut   = 0 // legacy put: value is the body alone (read-only)
	recKindDel   = 1
	// recKindPutV is the versioned put written since the provenance
	// layer: value = u8 verLen | version | body, with the header's
	// length field covering the whole value. Legacy kind-0 records
	// replay as version "".
	recKindPutV = 2

	// maxKeyLen bounds record keys (cache keys are 64 hex chars; job
	// journal keys add a short prefix).
	maxKeyLen = 1 << 10
	// maxBodyLen bounds record bodies (encoded result documents are
	// tens of kilobytes; a full-catalogue matrix document is below a
	// megabyte).
	maxBodyLen = 64 << 20
	// maxVerLen bounds the engine-version stamp (one length byte).
	maxVerLen = 255
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options parameterise Open. The zero value is ready to use.
type Options struct {
	// SegmentBytes is the rotation threshold for the active segment
	// (default 8 MiB). A record larger than the threshold still fits:
	// segments are rotated between records, never split across them.
	SegmentBytes int64
	// MaxBytes bounds the total on-disk size; exceeding it triggers a
	// compaction, which first drops superseded records and tombstones
	// and then, if still over budget, evicts the oldest unpinned
	// records (default 256 MiB). Compaction is synchronous: the Put
	// that trips the budget rewrites the live set while holding the
	// store lock, pausing concurrent reads and writes for the duration
	// — size the budget for an acceptable pause (the rewrite streams
	// at disk speed, and a large budget is hit rarely).
	MaxBytes int64
	// Pinned, when non-nil, marks keys that size-eviction must never
	// drop (the service pins its job journal). Pinned records are still
	// rewritten — deduplicated — by compaction.
	Pinned func(key string) bool
	// NoSync skips the fsync on segment rotation and Close. Process
	// kills are always safe either way (appends reach the page cache on
	// write); NoSync trades machine-crash durability for test speed.
	NoSync bool
	// Version is stamped into every record written and carried into
	// its Merkle leaf, so a proof attests which engine produced the
	// body, not just that the bytes are intact. At most 255 bytes.
	Version string
}

func (o Options) fill() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 256 << 20
	}
	return o
}

// Stats is a snapshot of the store's counters; cumulative counters
// reset on Open.
type Stats struct {
	// Segments / Records / Bytes describe the current on-disk state:
	// segment files, live (indexed) records, total log bytes including
	// superseded records awaiting compaction.
	Segments int   `json:"segments"`
	Records  int   `json:"records"`
	Bytes    int64 `json:"bytes"`
	// LiveBytes is the on-disk size of the live records alone.
	LiveBytes int64 `json:"live_bytes"`
	// Gets / Hits / Puts count lookups, successful lookups and appended
	// put records since Open.
	Gets uint64 `json:"gets"`
	Hits uint64 `json:"hits"`
	Puts uint64 `json:"puts"`
	// Compactions counts log rewrites; Evicted counts live records
	// dropped by size-budget eviction across them; CompactErrors counts
	// failed automatic compactions (the triggering Put still succeeded;
	// the rewrite is retried on a later append).
	Compactions   uint64 `json:"compactions"`
	Evicted       uint64 `json:"evicted"`
	CompactErrors uint64 `json:"compact_errors"`
	// TailTruncated counts bytes cut from the active segment's tail on
	// Open (a partial record from a kill mid-append). CorruptSegments
	// counts sealed segments whose replay stopped at a corrupt record
	// on Open: every record from the corruption to that segment's end
	// is unreachable (how many is unknowable — frames cannot be
	// re-synchronized past a bad length field), records before it and
	// in other segments all survive.
	TailTruncated   int64 `json:"tail_truncated"`
	CorruptSegments int   `json:"corrupt_segments"`
	// SealedSegments / SealedRecords count segments under a Merkle
	// root and the records (puts, supersessions and tombstones alike)
	// those roots commit to; UnsealedRecords is the active tail not
	// yet covered by any root. TaintedSegments count segments whose
	// recomputed root no longer matches the manifest — proofs from
	// them are refused until Verify localizes the damage.
	SealedSegments  int `json:"sealed_segments"`
	SealedRecords   int `json:"sealed_records"`
	UnsealedRecords int `json:"unsealed_records"`
	TaintedSegments int `json:"tainted_segments"`
	// ChainLen / ChainHead describe the sealed-root hash chain: its
	// length and latest link value (pin the head out of band to make
	// the whole log tamper-evident, truncation included).
	ChainLen  int    `json:"chain_len"`
	ChainHead string `json:"chain_head,omitempty"`
	// Seals counts sealing events since Open (rotation, compaction and
	// retro-sealing of pre-provenance segments); SealErrors counts
	// seals that failed to become durable (retried on the next Open).
	Seals      uint64 `json:"seals"`
	SealErrors uint64 `json:"seal_errors"`
}

// recordLoc locates one live record inside a segment.
type recordLoc struct {
	seg     uint64
	off     int64 // offset of the frame header
	size    int64 // full frame size
	bodyLen int
	seq     uint64 // global append order, for oldest-first eviction
	ver     string // engine version stamped at write time (interned)
	leafIdx int    // index into the segment's provenance leaves
}

// segment is one open log file.
type segment struct {
	id   uint64
	f    *os.File
	size int64
}

// segProv is one segment's provenance state: its leaves in append
// order, and — once sealed — the root and its manifest entry.
type segProv struct {
	leaves  []provenance.Leaf
	sealed  bool
	root    [provenance.HashSize]byte
	entry   provenance.SealedRoot
	corrupt bool   // replay stopped short of the segment's end
	tainted string // non-empty: why reconciliation rejected the seal
}

// Store is the disk-backed store. All methods are safe for concurrent
// use. A Store assumes it is the only process writing its directory
// (the service owns its data dir); no advisory locking is attempted.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	segs    map[uint64]*segment
	segIDs  []uint64 // sorted ascending; last is the active segment
	index   map[string]recordLoc
	total   int64 // bytes across all segments
	live    int64 // bytes of live records
	nextSeq uint64
	stats   Stats
	closed  bool

	prov      map[uint64]*segProv
	manifest  []provenance.SealedRoot
	chainTail [provenance.HashSize]byte
	chainLen  int
	verCache  map[string]string // interns replayed version stamps
}

// Open opens (or creates) the store rooted at dir, rebuilding the
// in-memory index by scanning every segment. A partial record at the
// tail of the active segment — the signature of a kill mid-append —
// is truncated away; a CRC failure in the middle of a segment drops
// that segment's remaining records but nothing else.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.fill()
	if len(opts.Version) > maxVerLen {
		return nil, fmt.Errorf("store: version stamp of %d bytes exceeds the %d limit", len(opts.Version), maxVerLen)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		segs:     map[uint64]*segment{},
		index:    map[string]recordLoc{},
		prov:     map[uint64]*segProv{},
		verCache: map[string]string{},
	}
	ids, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		active := i == len(ids)-1
		if err := s.openSegment(id, active); err != nil {
			s.closeLocked()
			return nil, err
		}
	}
	if len(s.segIDs) == 0 {
		if err := s.newSegment(1); err != nil {
			return nil, err
		}
	}
	if err := s.loadProvenance(); err != nil {
		s.closeLocked()
		return nil, err
	}
	return s, nil
}

// listSegments returns the segment ids under dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ids := make([]uint64, 0, len(names))
	for _, name := range names {
		base := strings.TrimSuffix(filepath.Base(name), ".seg")
		id, err := strconv.ParseUint(base, 10, 64)
		if err != nil {
			continue // not ours; leave it alone
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// openSegment opens one existing segment, replays its records into the
// index and repairs the tail when the segment is the active one.
func (s *Store) openSegment(id uint64, active bool) error {
	path := s.segPath(id)
	flags := os.O_RDONLY
	if active {
		flags = os.O_RDWR
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.prov[id] = &segProv{}
	valid, err := s.replay(id, f)
	if err != nil {
		f.Close()
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	if valid < size {
		if active {
			// Partial or corrupt tail on the segment that was being
			// appended to — the normal signature of a kill mid-append:
			// cut it so the next append starts on a clean frame
			// boundary.
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return fmt.Errorf("store: truncate %s: %w", path, err)
			}
			s.stats.TailTruncated += size - valid
			size = valid
		} else {
			// A sealed segment was never half-written, so stopping
			// short of its end means real corruption. It keeps its
			// bytes on disk (rewriting sealed files would violate
			// append-only); the unreachable span is reclaimed at the
			// next compaction.
			s.stats.CorruptSegments++
			s.prov[id].corrupt = true
		}
	}
	seg := &segment{id: id, f: f, size: size}
	s.segs[id] = seg
	s.segIDs = append(s.segIDs, id)
	s.total += size
	return nil
}

// replay scans one segment file from the start, applying every intact
// record to the index and accumulating its provenance leaves. It
// returns the offset just past the last intact record. Records that
// fail validation stop the scan: everything before them survives,
// everything after is unreachable (openSegment classifies the stop as
// tail damage or corruption by whether the segment was the active
// one).
func (s *Store) replay(id uint64, f *os.File) (int64, error) {
	sp := s.prov[id]
	// Buffered: replay touches every record, and two raw syscalls per
	// record would make reopening a full store needlessly slow.
	return scanSegment(bufio.NewReaderSize(f, 1<<20), func(rec scanned) {
		if prev, ok := s.index[rec.key]; ok {
			s.live -= prev.size
		}
		ver := s.internVer(rec.ver)
		switch rec.kind {
		case recKindPut, recKindPutV:
			s.index[rec.key] = recordLoc{
				seg: id, off: rec.off, size: rec.size, bodyLen: rec.bodyLen,
				seq: s.nextSeq, ver: ver, leafIdx: len(sp.leaves),
			}
			s.live += rec.size
			sp.leaves = append(sp.leaves, provenance.Leaf{Key: rec.key, BodyHash: rec.bodyHash, Version: ver})
		case recKindDel:
			delete(s.index, rec.key)
			sp.leaves = append(sp.leaves, provenance.Leaf{Key: rec.key, Deleted: true})
		}
		s.nextSeq++
	})
}

// internVer deduplicates version-stamp strings rebuilt during replay
// (one distinct stamp per engine build, repeated on every record).
func (s *Store) internVer(v string) string {
	if v == "" {
		return ""
	}
	if c, ok := s.verCache[v]; ok {
		return c
	}
	s.verCache[v] = v
	return v
}

// scanned is one intact record decoded by scanSegment.
type scanned struct {
	off      int64
	size     int64
	kind     byte
	key      string
	ver      string
	bodyLen  int
	bodyHash [provenance.HashSize]byte // zero for tombstones
}

// scanSegment reads CRC-framed records from r until EOF or the first
// invalid frame, calling fn for each intact record, and returns the
// offset just past the last intact one. It is the single decoder
// shared by replay and offline verification, so both agree on what a
// valid record is.
func scanSegment(r io.Reader, fn func(rec scanned)) (int64, error) {
	br := &countingReader{r: r}
	var off int64
	header := make([]byte, recHeaderLen)
	for {
		off = br.n
		if _, err := io.ReadFull(br, header); err != nil {
			return off, nil
		}
		keyLen := binary.LittleEndian.Uint32(header[0:4])
		valLen := binary.LittleEndian.Uint32(header[4:8])
		kind := header[8]
		if keyLen == 0 || keyLen > maxKeyLen || valLen > maxBodyLen+maxVerLen+1 ||
			(kind != recKindPut && kind != recKindDel && kind != recKindPutV) {
			return off, nil
		}
		payload := make([]byte, int(keyLen)+int(valLen)+4)
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, nil
		}
		crc := crc32.Checksum(header, crcTable)
		crc = crc32.Update(crc, crcTable, payload[:len(payload)-4])
		if crc != binary.LittleEndian.Uint32(payload[len(payload)-4:]) {
			return off, nil
		}
		rec := scanned{
			off:  off,
			size: int64(recHeaderLen) + int64(len(payload)),
			kind: kind,
			key:  string(payload[:keyLen]),
		}
		val := payload[keyLen : len(payload)-4]
		if kind == recKindPutV {
			if len(val) < 1 || len(val) < 1+int(val[0]) {
				return off, nil
			}
			rec.ver = string(val[1 : 1+int(val[0])])
			val = val[1+int(val[0]):]
		}
		rec.bodyLen = len(val)
		if kind != recKindDel {
			rec.bodyHash = sha256.Sum256(val)
		}
		fn(rec)
	}
}

// countingReader tracks the consumed offset.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Store) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%08d.seg", id))
}

// newSegment creates and activates segment id. Callers hold s.mu (or
// run before the store is shared).
func (s *Store) newSegment(id uint64) error {
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.segs[id] = &segment{id: id, f: f}
	s.segIDs = append(s.segIDs, id)
	s.prov[id] = &segProv{}
	return nil
}

// active returns the append segment. Callers hold s.mu.
func (s *Store) active() *segment { return s.segs[s.segIDs[len(s.segIDs)-1]] }

// frame serializes one record. Puts are written as versioned records
// (kind 2, value = u8 verLen | ver | body); tombstones carry neither
// version nor body.
func frame(kind byte, key, ver string, body []byte) []byte {
	valLen := len(body)
	if kind == recKindPutV {
		valLen += 1 + len(ver)
	}
	buf := make([]byte, recHeaderLen+len(key)+valLen+4)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(valLen))
	buf[8] = kind
	copy(buf[recHeaderLen:], key)
	p := recHeaderLen + len(key)
	if kind == recKindPutV {
		buf[p] = byte(len(ver))
		p++
		copy(buf[p:], ver)
		p += len(ver)
	}
	copy(buf[p:], body)
	crc := crc32.Checksum(buf[:len(buf)-4], crcTable)
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc)
	return buf
}

// Get returns a copy of the body stored under key.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, fmt.Errorf("store: closed")
	}
	s.stats.Gets++
	loc, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	seg := s.segs[loc.seg]
	body := make([]byte, loc.bodyLen)
	bodyOff := loc.off + recHeaderLen + (loc.size - recHeaderLen - int64(loc.bodyLen) - 4)
	if _, err := seg.f.ReadAt(body, bodyOff); err != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", s.segPath(loc.seg), err)
	}
	s.stats.Hits++
	return body, true, nil
}

// Put appends a record for key. Re-putting an existing key supersedes
// the old record (equal keys are expected to carry equal bodies for
// content-addressed results; the job journal overwrites freely).
func (s *Store) Put(key string, body []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d out of range", len(key))
	}
	if len(body) > maxBodyLen {
		return fmt.Errorf("store: body of %d bytes exceeds the %d limit", len(body), maxBodyLen)
	}
	return s.append(recKindPutV, key, body)
}

// Delete appends a tombstone for key; a missing key is a no-op (the
// existence check and the tombstone append are one critical section,
// so a Delete can never erase a concurrent Put it did not observe).
func (s *Store) Delete(key string) error {
	return s.append(recKindDel, key, nil)
}

func (s *Store) append(kind byte, key string, body []byte) error {
	buf := frame(kind, key, s.opts.Version, body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if kind == recKindDel {
		if _, ok := s.index[key]; !ok {
			return nil
		}
	}
	seg := s.active()
	if seg.size > 0 && seg.size+int64(len(buf)) > s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		seg = s.active()
	}
	if _, err := seg.f.WriteAt(buf, seg.size); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	off := seg.size
	seg.size += int64(len(buf))
	s.total += int64(len(buf))
	if prev, ok := s.index[key]; ok {
		s.live -= prev.size
	}
	sp := s.prov[seg.id]
	switch kind {
	case recKindPutV:
		s.index[key] = recordLoc{
			seg: seg.id, off: off, size: int64(len(buf)), bodyLen: len(body),
			seq: s.nextSeq, ver: s.opts.Version, leafIdx: len(sp.leaves),
		}
		s.live += int64(len(buf))
		s.stats.Puts++
		sp.leaves = append(sp.leaves, provenance.Leaf{
			Key: key, BodyHash: sha256.Sum256(body), Version: s.opts.Version,
		})
	case recKindDel:
		delete(s.index, key)
		sp.leaves = append(sp.leaves, provenance.Leaf{Key: key, Deleted: true})
	}
	s.nextSeq++
	// Pinned-key appends never trigger the rewrite themselves: they are
	// tiny (the service journals jobs under its mutex, and a surprise
	// whole-log rewrite inside that critical section would stall every
	// job API call); the next unpinned append — result bodies, which
	// dominate the log — compacts instead.
	if s.total > s.opts.MaxBytes && (s.opts.Pinned == nil || !s.opts.Pinned(key)) {
		// The append itself succeeded and is durable; a failed rewrite
		// (say ENOSPC while the log is briefly doubled) leaves the old
		// layout fully intact and is retried on a later append, so it
		// is counted, not surfaced as a put failure.
		if err := s.compactLocked(); err != nil {
			s.stats.CompactErrors++
		}
	}
	return nil
}

// rotateLocked seals the active segment — fsync (unless NoSync), then
// Merkle root + chain link into the manifest — and starts the next
// one. A seal that fails to become durable is counted and retried at
// the next Open (retro-seal); it never blocks the append that
// triggered the rotation.
func (s *Store) rotateLocked() error {
	seg := s.active()
	if !s.opts.NoSync {
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("store: sync %s: %w", s.segPath(seg.id), err)
		}
	}
	if err := s.sealLocked(seg.id); err != nil {
		s.stats.SealErrors++
	}
	return s.newSegment(seg.id + 1)
}

// compactLocked rewrites the live set into fresh segments, dropping
// superseded records and tombstones. If the live set alone still
// exceeds the size budget, the oldest unpinned records are evicted
// (the store holds cacheable results; losing the oldest is a cache
// eviction, not data loss — any evicted result can be recomputed).
// The rewrite is built entirely on the side and swapped in only once
// every survivor is written: a mid-compaction failure (or kill)
// leaves the current layout fully intact — new segments are numbered
// past every old one, so even a half-written leftover replays behind
// the records it copied. Callers hold s.mu.
func (s *Store) compactLocked() error {
	type liveRec struct {
		key string
		loc recordLoc
	}
	recs := make([]liveRec, 0, len(s.index))
	for k, loc := range s.index {
		recs = append(recs, liveRec{k, loc})
	}
	// Oldest first, by global append order.
	sort.Slice(recs, func(i, j int) bool { return recs[i].loc.seq < recs[j].loc.seq })

	// Evict oldest unpinned records until the live set fits the budget.
	keep := make([]liveRec, 0, len(recs))
	liveBytes := s.live
	evicted := uint64(0)
	for _, r := range recs {
		if liveBytes > s.opts.MaxBytes && (s.opts.Pinned == nil || !s.opts.Pinned(r.key)) {
			liveBytes -= r.loc.size
			evicted++
			continue
		}
		keep = append(keep, r)
	}

	// Write the survivors into fresh segment files on the side.
	var (
		newSegs  = map[uint64]*segment{}
		newIDs   []uint64
		newIndex = make(map[string]recordLoc, len(keep))
		newProv  = map[uint64]*segProv{}
		newTotal int64
	)
	fail := func(err error) error {
		for _, seg := range newSegs {
			seg.f.Close()
			os.Remove(s.segPath(seg.id))
			os.Remove(provenance.SidecarPath(s.dir, seg.id))
		}
		return err
	}
	nextID := s.segIDs[len(s.segIDs)-1] + 1
	openNew := func() (*segment, error) {
		f, err := os.OpenFile(s.segPath(nextID), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: compact: %w", err)
		}
		seg := &segment{id: nextID, f: f}
		newSegs[nextID] = seg
		newIDs = append(newIDs, nextID)
		newProv[nextID] = &segProv{}
		nextID++
		return seg, nil
	}
	var seg *segment
	for _, r := range keep {
		buf := make([]byte, r.loc.size)
		if _, err := s.segs[r.loc.seg].f.ReadAt(buf, r.loc.off); err != nil {
			return fail(fmt.Errorf("store: compact read: %w", err))
		}
		if seg == nil || (seg.size > 0 && seg.size+int64(len(buf)) > s.opts.SegmentBytes) {
			if seg != nil && !s.opts.NoSync {
				if err := seg.f.Sync(); err != nil {
					return fail(fmt.Errorf("store: compact sync: %w", err))
				}
			}
			var err error
			if seg, err = openNew(); err != nil {
				return fail(err)
			}
		}
		if _, err := seg.f.WriteAt(buf, seg.size); err != nil {
			return fail(fmt.Errorf("store: compact write: %w", err))
		}
		sp := newProv[seg.id]
		newIndex[r.key] = recordLoc{
			seg: seg.id, off: seg.size, size: r.loc.size, bodyLen: r.loc.bodyLen,
			seq: r.loc.seq, ver: r.loc.ver, leafIdx: len(sp.leaves),
		}
		// Frames are copied byte-for-byte, so each survivor's leaf —
		// already computed when the record was first written or
		// replayed — carries over unchanged.
		sp.leaves = append(sp.leaves, s.prov[r.loc.seg].leaves[r.loc.leafIdx])
		seg.size += int64(len(buf))
		newTotal += int64(len(buf))
	}
	if seg != nil && !s.opts.NoSync {
		if err := seg.f.Sync(); err != nil {
			return fail(fmt.Errorf("store: compact sync: %w", err))
		}
	}

	// Seal every rewritten segment, carrying the chain across the
	// compaction: entries for the old segments are dropped (their
	// files are about to vanish) but the first new entry's PrevChain
	// is the pre-compaction chain tail, so the chain — and a head
	// value pinned out of band — stays continuous end to end. Roots
	// are deterministic: survivors are written oldest-first with their
	// original leaves, so compacting the same live set always produces
	// the same roots.
	chainTail, chainLen := s.chainTail, s.chainLen
	var entries []provenance.SealedRoot
	for _, id := range newIDs {
		sp := newProv[id]
		if len(sp.leaves) == 0 {
			continue
		}
		root := provenance.RootOf(sp.leaves)
		entry := provenance.SealedRoot{
			ChainPos:  chainLen,
			Segment:   id,
			Leaves:    len(sp.leaves),
			Root:      provenance.EncodeHash(root),
			PrevChain: provenance.EncodeHash(chainTail),
			Chain:     provenance.EncodeHash(provenance.ChainHash(chainTail, root)),
			Version:   s.opts.Version,
		}
		sc := provenance.Sidecar{Segment: id, Root: entry.Root}
		for _, l := range sp.leaves {
			sc.Leaves = append(sc.Leaves, provenance.WireLeaf(l))
		}
		if err := provenance.WriteSidecar(s.dir, sc, !s.opts.NoSync); err != nil {
			return fail(err)
		}
		sp.sealed, sp.root, sp.entry = true, root, entry
		entries = append(entries, entry)
		chainTail = provenance.ChainHash(chainTail, root)
		chainLen = entry.ChainPos + 1
	}
	// Fresh empty active segment: every rewritten segment is sealed,
	// new appends land under the next root.
	if _, err := openNew(); err != nil {
		return fail(err)
	}
	if err := provenance.WriteManifest(provenance.ManifestPath(s.dir), entries, !s.opts.NoSync); err != nil {
		return fail(err)
	}

	// Swap the new layout in and drop the old files. From here the
	// state is already consistent. Removal stops at the first failure
	// rather than skipping past it: tombstones are dropped from the
	// rewrite, so if an old segment holding a Put survived while a
	// newer one holding its Delete were removed, the next Open would
	// resurrect the deleted key. Keeping the contiguous newer suffix
	// keeps every surviving Put's tombstone too, and leftover records
	// replay before — and lose to — the compacted copies.
	oldIDs, oldSegs := s.segIDs, s.segs
	s.segs, s.segIDs = newSegs, newIDs
	s.index = newIndex
	s.prov = newProv
	s.manifest = entries
	s.chainTail, s.chainLen = chainTail, chainLen
	s.total, s.live = newTotal, newTotal
	s.stats.Compactions++
	s.stats.Evicted += evicted
	s.stats.Seals += uint64(len(entries))
	var removeErr error
	for _, id := range oldIDs {
		oldSegs[id].f.Close()
		os.Remove(provenance.SidecarPath(s.dir, id)) // derived data; orphans are ignored anyway
		if removeErr != nil {
			continue
		}
		if err := os.Remove(s.segPath(id)); err != nil {
			removeErr = fmt.Errorf("store: remove %s: %w", s.segPath(id), err)
		}
	}
	return removeErr
}

// Keys returns the live keys with the given prefix, in unspecified
// order ("" returns every key). The service scans its job-journal
// namespace with this on startup.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Segments = len(s.segIDs)
	st.Records = len(s.index)
	st.Bytes = s.total
	st.LiveBytes = s.live
	for _, id := range s.segIDs {
		sp := s.prov[id]
		if sp.sealed {
			st.SealedSegments++
			st.SealedRecords += len(sp.leaves)
		} else {
			st.UnsealedRecords += len(sp.leaves)
		}
		if sp.tainted != "" {
			st.TaintedSegments++
		}
	}
	st.ChainLen = s.chainLen
	if s.chainLen > 0 {
		st.ChainHead = provenance.EncodeHash(s.chainTail)
	}
	return st
}

// Close syncs the active segment (unless NoSync) and closes every
// segment file. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if !s.opts.NoSync {
		err = s.active().f.Sync()
	}
	s.closeLocked()
	return err
}

func (s *Store) closeLocked() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.closed = true
}
