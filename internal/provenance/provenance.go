// Package provenance makes the result store tamper-evident. Every
// record appended to the store becomes a leaf — the record's key, the
// SHA-256 of its body, and the engine version that produced it — and
// each segment, once sealed (at rotation or compaction), gets a Merkle
// root over its leaves. Roots are hash-chained: each sealed root
// commits to its predecessor's chain value, so removing, reordering or
// rewriting any sealed segment breaks every chain value after it. The
// chain lives in a durable manifest next to the segments; pin the head
// chain value out of band and the entire log is verifiable offline.
//
// Hashing conventions follow RFC 6962 (Certificate Transparency):
// leaves and interior nodes are domain-separated (0x00 / 0x01
// prefixes) so a leaf can never be confused with a node, and trees
// over n > 1 leaves split at the largest power of two strictly below
// n, which keeps roots and inclusion proofs canonical for any leaf
// count without padding. Chain links use a third domain (0x02).
package provenance

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// HashSize is the size of every hash in the package (SHA-256).
const HashSize = sha256.Size

// Domain-separation prefixes.
const (
	leafPrefix  = 0x00
	nodePrefix  = 0x01
	chainPrefix = 0x02
)

// Leaf is one store record as seen by the provenance layer: the put or
// tombstone itself, not the live set — a segment seals the history it
// holds, superseded records included.
type Leaf struct {
	// Key is the record's content address (or journal key).
	Key string
	// BodyHash is SHA-256 of the record body; zero for tombstones.
	BodyHash [HashSize]byte
	// Deleted marks a tombstone record.
	Deleted bool
	// Version is the engine/schema version stamped into the record at
	// write time; empty for tombstones and for records written before
	// version stamping existed.
	Version string
}

// Hash returns the leaf hash: SHA-256 over
//
//	0x00 | u8 kind | u32 len(key) | key | u32 len(version) | version | bodyHash
//
// (kind 0 = put, 1 = tombstone; lengths little-endian). The layout is
// frozen: changing it silently invalidates every sealed root.
func (l Leaf) Hash() [HashSize]byte {
	h := sha256.New()
	var hdr [2]byte
	hdr[0] = leafPrefix
	if l.Deleted {
		hdr[1] = 1
	}
	h.Write(hdr[:])
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(l.Key)))
	h.Write(n[:])
	h.Write([]byte(l.Key))
	binary.LittleEndian.PutUint32(n[:], uint32(len(l.Version)))
	h.Write(n[:])
	h.Write([]byte(l.Version))
	h.Write(l.BodyHash[:])
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// nodeHash combines two subtree roots.
func nodeHash(left, right [HashSize]byte) [HashSize]byte {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// splitPoint returns the largest power of two strictly less than n
// (n >= 2), the RFC 6962 tree split.
func splitPoint(n int) int {
	k := 1
	for k<<1 < n {
		k <<= 1
	}
	return k
}

// RootOf computes the Merkle root over the leaves in order. The root
// of a single leaf is its leaf hash; an empty tree has no defined root
// here because empty segments are never sealed.
func RootOf(leaves []Leaf) [HashSize]byte {
	hashes := make([][HashSize]byte, len(leaves))
	for i, l := range leaves {
		hashes[i] = l.Hash()
	}
	return rootOfHashes(hashes)
}

func rootOfHashes(hashes [][HashSize]byte) [HashSize]byte {
	switch len(hashes) {
	case 0:
		// RFC 6962 empty-tree root; unreachable through sealing.
		return sha256.Sum256(nil)
	case 1:
		return hashes[0]
	}
	k := splitPoint(len(hashes))
	return nodeHash(rootOfHashes(hashes[:k]), rootOfHashes(hashes[k:]))
}

// BuildProof returns the inclusion path for leaves[index]: the sibling
// subtree roots from the leaf level upward (the root of the subtree
// merged last is the last element).
func BuildProof(leaves []Leaf, index int) ([][HashSize]byte, error) {
	if index < 0 || index >= len(leaves) {
		return nil, fmt.Errorf("provenance: leaf index %d out of range [0,%d)", index, len(leaves))
	}
	hashes := make([][HashSize]byte, len(leaves))
	for i, l := range leaves {
		hashes[i] = l.Hash()
	}
	return proofOfHashes(hashes, index), nil
}

func proofOfHashes(hashes [][HashSize]byte, index int) [][HashSize]byte {
	if len(hashes) == 1 {
		return nil
	}
	k := splitPoint(len(hashes))
	if index < k {
		p := proofOfHashes(hashes[:k], index)
		return append(p, rootOfHashes(hashes[k:]))
	}
	p := proofOfHashes(hashes[k:], index-k)
	return append(p, rootOfHashes(hashes[:k]))
}

// RootFromProof recomputes the root implied by a leaf hash at index in
// a tree of size leaves, using the sibling path from BuildProof. It
// errors when the path length is inconsistent with (index, size).
func RootFromProof(leaf [HashSize]byte, index, size int, siblings [][HashSize]byte) ([HashSize]byte, error) {
	var zero [HashSize]byte
	if index < 0 || size < 1 || index >= size {
		return zero, fmt.Errorf("provenance: leaf index %d out of range for tree size %d", index, size)
	}
	if size == 1 {
		if len(siblings) != 0 {
			return zero, fmt.Errorf("provenance: %d sibling hashes left over", len(siblings))
		}
		return leaf, nil
	}
	if len(siblings) == 0 {
		return zero, fmt.Errorf("provenance: sibling path too short for tree size %d", size)
	}
	top := siblings[len(siblings)-1]
	rest := siblings[:len(siblings)-1]
	k := splitPoint(size)
	if index < k {
		sub, err := RootFromProof(leaf, index, k, rest)
		if err != nil {
			return zero, err
		}
		return nodeHash(sub, top), nil
	}
	sub, err := RootFromProof(leaf, index-k, size-k, rest)
	if err != nil {
		return zero, err
	}
	return nodeHash(top, sub), nil
}

// ChainHash links a sealed root onto the chain:
//
//	chain_i = SHA-256(0x02 | chain_{i-1} | root_i)
//
// with the genesis predecessor all zeroes.
func ChainHash(prev, root [HashSize]byte) [HashSize]byte {
	h := sha256.New()
	h.Write([]byte{chainPrefix})
	h.Write(prev[:])
	h.Write(root[:])
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// ProofLeaf is the leaf of a served proof, hex-encoded for the wire.
type ProofLeaf struct {
	Key        string `json:"key"`
	BodySHA256 string `json:"body_sha256"`
	Deleted    bool   `json:"deleted,omitempty"`
	Version    string `json:"engine_version"`
}

// Proof is a self-contained, offline-verifiable inclusion proof: the
// leaf, its position and sibling path within one sealed segment's
// tree, the sealed root, and the root's position and link values in
// the hash chain. Verify checks all the hash arithmetic; trusting the
// proof additionally requires the chain value to match a chain head
// known out of band (or the store's manifest, via VerifyDir).
type Proof struct {
	Leaf      ProofLeaf `json:"leaf"`
	Index     int       `json:"index"`
	TreeSize  int       `json:"tree_size"`
	Siblings  []string  `json:"siblings"`
	Root      string    `json:"root"`
	Segment   uint64    `json:"segment"`
	ChainPos  int       `json:"chain_pos"`
	PrevChain string    `json:"prev_chain"`
	Chain     string    `json:"chain"`
}

// Verify checks the proof's internal hash arithmetic: leaf hash +
// sibling path reproduce Root, and ChainHash(PrevChain, Root)
// reproduces Chain.
func (p Proof) Verify() error {
	var bodyHash [HashSize]byte
	if err := decodeHash(p.Leaf.BodySHA256, &bodyHash); err != nil {
		return fmt.Errorf("provenance: leaf body_sha256: %w", err)
	}
	leaf := Leaf{Key: p.Leaf.Key, BodyHash: bodyHash, Deleted: p.Leaf.Deleted, Version: p.Leaf.Version}
	siblings := make([][HashSize]byte, len(p.Siblings))
	for i, s := range p.Siblings {
		if err := decodeHash(s, &siblings[i]); err != nil {
			return fmt.Errorf("provenance: sibling %d: %w", i, err)
		}
	}
	root, err := RootFromProof(leaf.Hash(), p.Index, p.TreeSize, siblings)
	if err != nil {
		return err
	}
	var wantRoot, prev, chain [HashSize]byte
	if err := decodeHash(p.Root, &wantRoot); err != nil {
		return fmt.Errorf("provenance: root: %w", err)
	}
	if root != wantRoot {
		return fmt.Errorf("provenance: proof for key %s does not reproduce root %s (got %s)",
			p.Leaf.Key, p.Root, hex.EncodeToString(root[:]))
	}
	if err := decodeHash(p.PrevChain, &prev); err != nil {
		return fmt.Errorf("provenance: prev_chain: %w", err)
	}
	if err := decodeHash(p.Chain, &chain); err != nil {
		return fmt.Errorf("provenance: chain: %w", err)
	}
	if got := ChainHash(prev, wantRoot); got != chain {
		return fmt.Errorf("provenance: chain value %s does not commit to root %s at pos %d",
			p.Chain, p.Root, p.ChainPos)
	}
	return nil
}

// VerifyBody additionally checks that body is the exact bytes the
// proof's leaf commits to.
func (p Proof) VerifyBody(body []byte) error {
	if p.Leaf.Deleted {
		return fmt.Errorf("provenance: proof is for a tombstone, not a body")
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != p.Leaf.BodySHA256 {
		return fmt.Errorf("provenance: body hashes to %s, proof leaf commits to %s", got, p.Leaf.BodySHA256)
	}
	return p.Verify()
}

// EncodeHash hex-encodes a hash for manifests and wire documents.
func EncodeHash(h [HashSize]byte) string { return hex.EncodeToString(h[:]) }

// DecodeHash parses a hex hash produced by EncodeHash.
func DecodeHash(s string) ([HashSize]byte, error) {
	var out [HashSize]byte
	err := decodeHash(s, &out)
	return out, err
}

func decodeHash(s string, out *[HashSize]byte) error {
	b, err := hex.DecodeString(s)
	if err != nil {
		return fmt.Errorf("bad hash %q: %w", s, err)
	}
	if len(b) != HashSize {
		return fmt.Errorf("bad hash %q: %d bytes, want %d", s, len(b), HashSize)
	}
	copy(out[:], b)
	return nil
}
