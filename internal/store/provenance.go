package store

import (
	"errors"
	"fmt"

	"thermbal/internal/provenance"
)

// Sentinel errors for proof requests, so callers can map them onto
// distinct responses.
var (
	// ErrNotFound: no live record under the key.
	ErrNotFound = errors.New("store: key not found")
	// ErrUnsealed: the record lives in the active segment, whose root
	// does not exist yet (rotation or Seal will create it).
	ErrUnsealed = errors.New("store: record not sealed yet")
	// ErrTainted: the record's segment failed seal reconciliation on
	// Open — its recomputed root no longer matches the manifest.
	ErrTainted = errors.New("store: segment failed provenance verification")
)

// sealLocked computes segment id's Merkle root, links it onto the
// chain and makes both durable: the full leaf listing into the
// segment's sidecar, the root + chain link appended to the manifest.
// Already-sealed, corrupt and empty segments are skipped. Callers
// hold s.mu.
func (s *Store) sealLocked(id uint64) error {
	sp := s.prov[id]
	if sp == nil || sp.sealed || sp.corrupt || len(sp.leaves) == 0 {
		return nil
	}
	entry, root, err := s.writeSeal(id, sp.leaves, s.chainTail, s.chainLen)
	if err != nil {
		return err
	}
	if err := provenance.AppendRoot(provenance.ManifestPath(s.dir), entry); err != nil {
		return err
	}
	sp.sealed, sp.root, sp.entry = true, root, entry
	s.manifest = append(s.manifest, entry)
	s.chainTail = provenance.ChainHash(s.chainTail, root)
	s.chainLen = entry.ChainPos + 1
	s.stats.Seals++
	return nil
}

// writeSeal computes the root of segment id's leaves, builds its
// manifest entry as chain link pos after prev, and writes the
// segment's sidecar. The caller records the entry in the manifest and
// marks the segment sealed.
func (s *Store) writeSeal(id uint64, leaves []provenance.Leaf, prev [provenance.HashSize]byte, pos int) (provenance.SealedRoot, [provenance.HashSize]byte, error) {
	root := provenance.RootOf(leaves)
	entry := provenance.SealedRoot{
		ChainPos:  pos,
		Segment:   id,
		Leaves:    len(leaves),
		Root:      provenance.EncodeHash(root),
		PrevChain: provenance.EncodeHash(prev),
		Chain:     provenance.EncodeHash(provenance.ChainHash(prev, root)),
		Version:   s.opts.Version,
	}
	sc := provenance.Sidecar{Segment: id, Root: entry.Root}
	for _, l := range leaves {
		sc.Leaves = append(sc.Leaves, provenance.WireLeaf(l))
	}
	return entry, root, provenance.WriteSidecar(s.dir, sc)
}

// loadProvenance reconciles the manifest against the replayed
// segments at Open time. Sealed segments whose recomputed root
// matches keep serving proofs; mismatches are tainted, never healed —
// rewriting a root would erase exactly the evidence the chain exists
// to preserve. Unsealed non-active segments (pre-provenance stores,
// or a seal that failed to become durable) are retro-sealed, which
// also adopts whole legacy stores on first contact.
func (s *Store) loadProvenance() error {
	man, err := provenance.LoadManifest(provenance.ManifestPath(s.dir))
	if err != nil {
		return err
	}
	// Entries past an internal chain break cannot be trusted: without
	// a consistent predecessor their link values prove nothing. Taint
	// their segments and carry the chain only up to the break.
	if bad := provenance.VerifyChain(man); bad != -1 {
		for _, e := range man[bad:] {
			if sp := s.prov[e.Segment]; sp != nil {
				sp.tainted = fmt.Sprintf("manifest chain broken at pos %d", man[bad].ChainPos)
			}
		}
		man = man[:bad]
	}
	activeID := s.segIDs[len(s.segIDs)-1]
	for _, e := range man {
		sp := s.prov[e.Segment]
		if sp == nil {
			// The sealed segment file itself is gone; the chain still
			// carries its root. Verify reports it, proofs for it are
			// impossible anyway (no records survive to serve).
			continue
		}
		root := provenance.RootOf(sp.leaves)
		sp.sealed, sp.entry = true, e
		if sp.corrupt || len(sp.leaves) != e.Leaves || provenance.EncodeHash(root) != e.Root {
			sp.tainted = fmt.Sprintf("recomputed root over %d records does not match the sealed root at chain pos %d",
				len(sp.leaves), e.ChainPos)
			continue
		}
		sp.root = root
	}
	s.manifest = man
	if len(man) > 0 {
		last := man[len(man)-1]
		s.chainLen = last.ChainPos + 1
		tail, err := provenance.DecodeHash(last.Chain)
		if err != nil {
			return fmt.Errorf("store: manifest chain head: %w", err)
		}
		s.chainTail = tail
	}
	// A crash between sealing and creating the successor segment
	// leaves the sealed segment as the highest-numbered one; appending
	// to it would break its root, so start a fresh active segment.
	if sp := s.prov[activeID]; sp.sealed {
		if err := s.newSegment(activeID + 1); err != nil {
			return err
		}
	}
	for _, id := range s.segIDs[:len(s.segIDs)-1] {
		if err := s.sealLocked(id); err != nil {
			s.stats.SealErrors++
		}
	}
	return nil
}

// Proof builds the inclusion proof for the live record under key: its
// leaf, position and sibling path in the sealed segment's tree, plus
// the sealed root's chain link. Records still in the active segment
// have no root yet and return ErrUnsealed.
func (s *Store) Proof(key string) (provenance.Proof, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var p provenance.Proof
	if s.closed {
		return p, fmt.Errorf("store: closed")
	}
	loc, ok := s.index[key]
	if !ok {
		return p, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	sp := s.prov[loc.seg]
	if !sp.sealed {
		return p, fmt.Errorf("%w: %s lives in the active segment", ErrUnsealed, key)
	}
	if sp.tainted != "" {
		return p, fmt.Errorf("%w: segment %08d: %s", ErrTainted, loc.seg, sp.tainted)
	}
	sibs, err := provenance.BuildProof(sp.leaves, loc.leafIdx)
	if err != nil {
		return p, err
	}
	p = provenance.Proof{
		Leaf:      provenance.WireLeaf(sp.leaves[loc.leafIdx]),
		Index:     loc.leafIdx,
		TreeSize:  len(sp.leaves),
		Siblings:  make([]string, 0, len(sibs)),
		Root:      sp.entry.Root,
		Segment:   loc.seg,
		ChainPos:  sp.entry.ChainPos,
		PrevChain: sp.entry.PrevChain,
		Chain:     sp.entry.Chain,
	}
	for _, h := range sibs {
		p.Siblings = append(p.Siblings, provenance.EncodeHash(h))
	}
	return p, nil
}

// Seal rotates the active segment so everything written so far comes
// under a sealed root (rotation does this automatically at the size
// threshold; Seal forces it — shutdown hooks and tests). An empty
// active segment is a no-op.
func (s *Store) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.active().size == 0 {
		return nil
	}
	return s.rotateLocked()
}
