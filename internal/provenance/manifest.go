package provenance

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestName is the chain manifest's filename inside a store data
// directory: one JSON line per sealed root, in chain order.
const ManifestName = "manifest.prov"

// SealedRoot is one manifest entry: a segment's Merkle root and its
// link in the hash chain. PrevChain is recorded explicitly (rather
// than implied by the previous line) so a manifest rewritten after
// compaction can carry the chain across segments that no longer exist.
type SealedRoot struct {
	ChainPos  int    `json:"chain_pos"`
	Segment   uint64 `json:"segment"`
	Leaves    int    `json:"leaves"`
	Root      string `json:"root"`
	PrevChain string `json:"prev_chain"`
	Chain     string `json:"chain"`
	// Version is the writer's engine version at seal time (individual
	// leaves carry their own write-time versions).
	Version string `json:"engine_version,omitempty"`
}

// ManifestPath returns the manifest's path under a data directory.
func ManifestPath(dir string) string { return filepath.Join(dir, ManifestName) }

// LoadManifest reads the manifest's entries in file order. A missing
// file is an empty manifest, not an error. A malformed line ends the
// chain at that point: a torn trailing append heals silently, while
// garbling in the middle orphans the entries after it — which segment
// reconciliation and VerifyChain then surface as a break.
func LoadManifest(path string) ([]SealedRoot, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	defer f.Close()
	var (
		roots []SealedRoot
		sc    = bufio.NewScanner(f)
	)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e SealedRoot
		if err := json.Unmarshal(line, &e); err != nil {
			break
		}
		roots = append(roots, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("provenance: read %s: %w", path, err)
	}
	return roots, nil
}

// VerifyChain checks a manifest's internal consistency: chain
// positions are consecutive, each entry's PrevChain equals its
// predecessor's Chain, and each Chain equals
// ChainHash(PrevChain, Root). It returns the index of the first
// inconsistent entry, or -1 when the whole chain holds.
func VerifyChain(roots []SealedRoot) int {
	for i, e := range roots {
		var prev, root, chain [HashSize]byte
		if decodeHash(e.PrevChain, &prev) != nil ||
			decodeHash(e.Root, &root) != nil ||
			decodeHash(e.Chain, &chain) != nil {
			return i
		}
		if i > 0 {
			if e.ChainPos != roots[i-1].ChainPos+1 || e.PrevChain != roots[i-1].Chain {
				return i
			}
		}
		if ChainHash(prev, root) != chain {
			return i
		}
	}
	return -1
}

// AppendRoot appends one entry to the manifest and fsyncs it. Appends
// are a single small write, so a torn append leaves at worst one
// partial trailing line, which LoadManifest drops.
func AppendRoot(path string, e SealedRoot) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("provenance: append %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("provenance: sync %s: %w", path, err)
	}
	return nil
}

// WriteManifest atomically replaces the manifest (fsynced temp file +
// rename), used when compaction rebuilds the sealed set wholesale.
func WriteManifest(path string, roots []SealedRoot) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, e := range roots {
		line, err := json.Marshal(e)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("provenance: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("provenance: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("provenance: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("provenance: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("provenance: rename %s: %w", tmp, err)
	}
	return nil
}

// Sidecar is a sealed segment's leaf listing (<segment>.mrk): enough
// to rebuild the tree, serve proofs, and — during verification —
// localize the first divergent record when a segment's recomputed
// root no longer matches the manifest.
type Sidecar struct {
	Segment uint64      `json:"segment"`
	Root    string      `json:"root"`
	Leaves  []ProofLeaf `json:"leaves"`
}

// SidecarPath returns segment id's sidecar path under a data
// directory (mirrors the %08d.seg naming).
func SidecarPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.mrk", id))
}

// WriteSidecar atomically writes a segment's sidecar.
func WriteSidecar(dir string, sc Sidecar) error {
	path := SidecarPath(dir, sc.Segment)
	data, err := json.Marshal(sc)
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("provenance: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("provenance: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("provenance: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("provenance: rename %s: %w", tmp, err)
	}
	return nil
}

// LoadSidecar reads segment id's sidecar; a missing file returns
// ok=false (sidecars are a localization aid, not the source of truth).
func LoadSidecar(dir string, id uint64) (Sidecar, bool, error) {
	var sc Sidecar
	data, err := os.ReadFile(SidecarPath(dir, id))
	if os.IsNotExist(err) {
		return sc, false, nil
	}
	if err != nil {
		return sc, false, fmt.Errorf("provenance: %w", err)
	}
	if err := json.Unmarshal(data, &sc); err != nil {
		return sc, false, fmt.Errorf("provenance: parse %s: %w", SidecarPath(dir, id), err)
	}
	return sc, true, nil
}

// SidecarLeaf converts a wire leaf back to its binary form.
func SidecarLeaf(pl ProofLeaf) (Leaf, error) {
	var l Leaf
	if err := decodeHash(pl.BodySHA256, &l.BodyHash); err != nil {
		return l, fmt.Errorf("provenance: leaf %s: %w", pl.Key, err)
	}
	l.Key, l.Deleted, l.Version = pl.Key, pl.Deleted, pl.Version
	return l, nil
}

// WireLeaf converts a binary leaf to its wire form.
func WireLeaf(l Leaf) ProofLeaf {
	return ProofLeaf{
		Key:        l.Key,
		BodySHA256: EncodeHash(l.BodyHash),
		Deleted:    l.Deleted,
		Version:    l.Version,
	}
}
