package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"thermbal/internal/provenance"
)

// BadRecord localizes one verification failure.
type BadRecord struct {
	Segment uint64 `json:"segment"`
	// Index is the record's position within its segment, -1 when the
	// failure cannot be pinned to one record (for example a root
	// mismatch with no trustworthy sidecar to diff against).
	Index  int    `json:"index"`
	Offset int64  `json:"offset,omitempty"`
	Key    string `json:"key,omitempty"`
	Reason string `json:"reason"`
}

func (b BadRecord) String() string {
	loc := fmt.Sprintf("segment %08d", b.Segment)
	if b.Index >= 0 {
		loc += fmt.Sprintf(" record %d", b.Index)
	}
	if b.Key != "" {
		loc += fmt.Sprintf(" (key %s)", b.Key)
	}
	return loc + ": " + b.Reason
}

// VerifyReport is the result of a full provenance scan: every record
// of every segment re-read and re-hashed, every sealed root and chain
// link recomputed from the raw bytes.
type VerifyReport struct {
	Segments        int         `json:"segments"`
	SealedSegments  int         `json:"sealed_segments"`
	Records         int         `json:"records"`
	SealedRecords   int         `json:"sealed_records"`
	UnsealedRecords int         `json:"unsealed_records"`
	ChainLen        int         `json:"chain_len"`
	ChainHead       string      `json:"chain_head,omitempty"`
	TailTruncated   int64       `json:"tail_truncated,omitempty"`
	Bad             []BadRecord `json:"bad,omitempty"`
}

// Err returns nil when the scan found nothing wrong, else an error
// naming the first localized failure.
func (r VerifyReport) Err() error {
	if len(r.Bad) == 0 {
		return nil
	}
	return fmt.Errorf("store: verification failed: %s", r.Bad[0])
}

// VerifyDir verifies a store directory offline: no server, no open
// Store, strictly read-only (it never truncates a torn tail or
// creates segments, unlike Open). The returned error is rep.Err() —
// non-nil exactly when something did not check out.
func VerifyDir(dir string) (VerifyReport, error) {
	var rep VerifyReport
	// A missing directory must be an error, not an empty-store pass: a
	// typo'd path would otherwise "verify" vacuously.
	fi, err := os.Stat(dir)
	if err != nil {
		return rep, fmt.Errorf("store: %w", err)
	}
	if !fi.IsDir() {
		return rep, fmt.Errorf("store: %s is not a directory", dir)
	}
	ids, err := listSegments(dir)
	if err != nil {
		return rep, err
	}
	man, err := provenance.LoadManifest(provenance.ManifestPath(dir))
	if err != nil {
		return rep, err
	}
	rep.Segments = len(ids)
	if bad := provenance.VerifyChain(man); bad != -1 {
		rep.Bad = append(rep.Bad, BadRecord{
			Segment: man[bad].Segment, Index: -1,
			Reason: fmt.Sprintf("manifest chain inconsistent at pos %d", man[bad].ChainPos),
		})
		man = man[:bad]
	}
	if len(man) > 0 {
		rep.ChainLen = man[len(man)-1].ChainPos + 1
		rep.ChainHead = man[len(man)-1].Chain
	}
	onDisk := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		onDisk[id] = true
	}
	sealedSet := make(map[uint64]provenance.SealedRoot, len(man))
	for _, e := range man {
		sealedSet[e.Segment] = e
		if !onDisk[e.Segment] {
			rep.Bad = append(rep.Bad, BadRecord{
				Segment: e.Segment, Index: -1,
				Reason: fmt.Sprintf("sealed segment file missing (chain pos %d)", e.ChainPos),
			})
		}
	}
	var activeID uint64
	if len(ids) > 0 {
		activeID = ids[len(ids)-1]
	}
	for _, id := range ids {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("%08d.seg", id)))
		if err != nil {
			return rep, fmt.Errorf("store: %w", err)
		}
		var (
			leaves []provenance.Leaf
			offs   []int64
		)
		valid, scanErr := scanSegment(bufio.NewReaderSize(f, scanBufSize), func(rec scanned) {
			leaves = append(leaves, rec.Leaf)
			offs = append(offs, rec.off)
		})
		fi, statErr := f.Stat()
		f.Close()
		if scanErr != nil {
			return rep, scanErr
		}
		if statErr != nil {
			return rep, fmt.Errorf("store: %w", statErr)
		}
		size := fi.Size()
		rep.Records += len(leaves)
		e, sealed := sealedSet[id]
		if !sealed {
			rep.UnsealedRecords += len(leaves)
			if valid < size {
				if id == activeID {
					// A torn tail on the segment that was being appended
					// to is the normal kill signature, not tampering.
					rep.TailTruncated += size - valid
				} else {
					rep.Bad = append(rep.Bad, BadRecord{
						Segment: id, Index: len(leaves), Offset: valid,
						Reason: "corrupt frame in an unsealed segment",
					})
				}
			}
			continue
		}
		rep.SealedSegments++
		rep.SealedRecords += len(leaves)
		rep.Bad = append(rep.Bad, verifySealed(dir, id, e, leaves, offs, valid, size)...)
	}
	return rep, rep.Err()
}

// verifySealed checks one sealed segment's scanned leaves against its
// manifest entry, using the sidecar — when it is itself consistent
// with the sealed root — to localize the first divergent record.
func verifySealed(dir string, id uint64, e provenance.SealedRoot, leaves []provenance.Leaf, offs []int64, valid, size int64) []BadRecord {
	scanShort := valid < size
	if !scanShort && len(leaves) == e.Leaves &&
		provenance.EncodeHash(provenance.RootOf(leaves)) == e.Root {
		return nil
	}
	sc, ok, err := provenance.LoadSidecar(dir, id)
	if err == nil && ok && sc.Root == e.Root && len(sc.Leaves) == e.Leaves {
		for i, pl := range sc.Leaves {
			want, err := provenance.SidecarLeaf(pl)
			if err != nil {
				break // sidecar garbled; fall through to the coarse report
			}
			if i >= len(leaves) {
				return []BadRecord{{
					Segment: id, Index: i, Offset: valid, Key: pl.Key,
					Reason: "record unreadable (scan stopped at a corrupt frame)",
				}}
			}
			if leaves[i].Hash() != want.Hash() {
				reason := "leaf mismatch"
				switch {
				case leaves[i].Key != want.Key:
					reason = "key mismatch"
				case leaves[i].BodyHash != want.BodyHash:
					reason = "body hash mismatch"
				case leaves[i].Version != want.Version:
					reason = "engine version mismatch"
				case leaves[i].Deleted != want.Deleted:
					reason = "record kind mismatch"
				}
				return []BadRecord{{Segment: id, Index: i, Offset: offs[i], Key: want.Key, Reason: reason}}
			}
		}
		if len(leaves) > e.Leaves {
			return []BadRecord{{
				Segment: id, Index: e.Leaves, Offset: offs[e.Leaves], Key: leaves[e.Leaves].Key,
				Reason: "records appended after the segment was sealed",
			}}
		}
	}
	reason := "recomputed root does not match the sealed root (no trustworthy sidecar to localize with)"
	if scanShort {
		reason = "corrupt frame inside a sealed segment"
	}
	return []BadRecord{{Segment: id, Index: -1, Offset: valid, Reason: reason}}
}

// Verify re-reads and re-hashes the whole store under the lock,
// recomputing every leaf, root and chain link from the raw segment
// bytes and localizing the first record that no longer matches what
// was sealed. It pauses reads and writes for the scan's duration.
func (s *Store) Verify() (VerifyReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return VerifyReport{}, fmt.Errorf("store: closed")
	}
	return VerifyDir(s.dir)
}
