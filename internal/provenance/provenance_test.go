package provenance

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mkLeaves(n int) []Leaf {
	leaves := make([]Leaf, n)
	for i := range leaves {
		body := []byte(fmt.Sprintf("body-%d", i))
		leaves[i] = Leaf{
			Key:      fmt.Sprintf("key-%04d", i),
			BodyHash: sha256.Sum256(body),
			Version:  "engine/test",
		}
	}
	return leaves
}

func TestLeafHashDomainsAndFields(t *testing.T) {
	base := mkLeaves(1)[0]
	variants := []Leaf{
		{Key: base.Key + "x", BodyHash: base.BodyHash, Version: base.Version},
		{Key: base.Key, BodyHash: sha256.Sum256([]byte("other")), Version: base.Version},
		{Key: base.Key, BodyHash: base.BodyHash, Version: "engine/other"},
		{Key: base.Key, BodyHash: base.BodyHash, Version: base.Version, Deleted: true},
	}
	h := base.Hash()
	for i, v := range variants {
		if v.Hash() == h {
			t.Fatalf("variant %d hashes identically to base leaf", i)
		}
	}
	// A leaf hash must not collide with a node hash over the same bytes.
	if nodeHash(h, h) == base.Hash() {
		t.Fatal("leaf and node hashing are not domain-separated")
	}
}

func TestProofRoundTripAllSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		leaves := mkLeaves(n)
		root := RootOf(leaves)
		for i := range leaves {
			sibs, err := BuildProof(leaves, i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			got, err := RootFromProof(leaves[i].Hash(), i, n, sibs)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if got != root {
				t.Fatalf("n=%d i=%d: proof does not reproduce root", n, i)
			}
		}
	}
}

func TestProofRejectsWrongLeaf(t *testing.T) {
	leaves := mkLeaves(7)
	root := RootOf(leaves)
	sibs, err := BuildProof(leaves, 3)
	if err != nil {
		t.Fatal(err)
	}
	tampered := leaves[3]
	tampered.BodyHash = sha256.Sum256([]byte("evil"))
	got, err := RootFromProof(tampered.Hash(), 3, 7, sibs)
	if err != nil {
		t.Fatal(err)
	}
	if got == root {
		t.Fatal("tampered leaf reproduced the root")
	}
	if _, err := RootFromProof(leaves[3].Hash(), 3, 7, sibs[:len(sibs)-1]); err == nil {
		t.Fatal("short sibling path accepted")
	}
	if _, err := BuildProof(leaves, 7); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestWireProofVerify(t *testing.T) {
	leaves := mkLeaves(5)
	root := RootOf(leaves)
	var prev [HashSize]byte
	chain := ChainHash(prev, root)
	sibs, err := BuildProof(leaves, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := Proof{
		Leaf:      WireLeaf(leaves[2]),
		Index:     2,
		TreeSize:  5,
		Root:      EncodeHash(root),
		PrevChain: EncodeHash(prev),
		Chain:     EncodeHash(chain),
	}
	for _, s := range sibs {
		p.Siblings = append(p.Siblings, EncodeHash(s))
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	if err := p.VerifyBody([]byte("body-2")); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	if err := p.VerifyBody([]byte("body-3")); err == nil {
		t.Fatal("wrong body accepted")
	}
	bad := p
	bad.Chain = EncodeHash(ChainHash(chain, root))
	if err := bad.Verify(); err == nil {
		t.Fatal("broken chain link accepted")
	}
	bad = p
	bad.Index = 3
	if err := bad.Verify(); err == nil {
		t.Fatal("shifted index accepted")
	}
}

func TestManifestRoundTripAndChain(t *testing.T) {
	dir := t.TempDir()
	path := ManifestPath(dir)
	var prev [HashSize]byte
	var roots []SealedRoot
	for i := 0; i < 4; i++ {
		root := RootOf(mkLeaves(i + 1))
		chain := ChainHash(prev, root)
		e := SealedRoot{
			ChainPos:  i,
			Segment:   uint64(i + 1),
			Leaves:    i + 1,
			Root:      EncodeHash(root),
			PrevChain: EncodeHash(prev),
			Chain:     EncodeHash(chain),
			Version:   "engine/test",
		}
		if err := AppendRoot(path, e); err != nil {
			t.Fatal(err)
		}
		roots = append(roots, e)
		prev = chain
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("loaded %d entries, want 4", len(got))
	}
	if bad := VerifyChain(got); bad != -1 {
		t.Fatalf("VerifyChain flagged entry %d on a good chain", bad)
	}
	// Breaking one link is detected at that entry.
	got[2].Root = got[1].Root
	if bad := VerifyChain(got); bad != 2 {
		t.Fatalf("VerifyChain = %d, want 2", bad)
	}
	// Atomic rewrite round-trips.
	if err := WriteManifest(path, roots[1:]); err != nil {
		t.Fatal(err)
	}
	got, err = LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ChainPos != 1 {
		t.Fatalf("rewritten manifest = %+v", got)
	}
	if bad := VerifyChain(got); bad != -1 {
		t.Fatalf("VerifyChain flagged entry %d after rewrite", bad)
	}
	// A torn trailing append is dropped, earlier entries survive.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"chain_pos": 9, "seg`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err = LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("torn tail: loaded %d entries, want 3", len(got))
	}
	// Missing manifest is empty, not an error.
	got, err = LoadManifest(filepath.Join(dir, "absent.prov"))
	if err != nil || got != nil {
		t.Fatalf("missing manifest: %v, %v", got, err)
	}
}

func TestSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	leaves := mkLeaves(3)
	leaves[1].Deleted = true
	leaves[1].BodyHash = [HashSize]byte{}
	leaves[1].Version = ""
	sc := Sidecar{Segment: 7, Root: EncodeHash(RootOf(leaves))}
	for _, l := range leaves {
		sc.Leaves = append(sc.Leaves, WireLeaf(l))
	}
	if err := WriteSidecar(dir, sc); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadSidecar(dir, 7)
	if err != nil || !ok {
		t.Fatalf("LoadSidecar: ok=%v err=%v", ok, err)
	}
	if got.Root != sc.Root || len(got.Leaves) != 3 {
		t.Fatalf("sidecar round trip: %+v", got)
	}
	back := make([]Leaf, len(got.Leaves))
	for i, pl := range got.Leaves {
		l, err := SidecarLeaf(pl)
		if err != nil {
			t.Fatal(err)
		}
		back[i] = l
	}
	if EncodeHash(RootOf(back)) != sc.Root {
		t.Fatal("leaves did not survive the wire round trip")
	}
	if _, ok, err := LoadSidecar(dir, 8); ok || err != nil {
		t.Fatalf("missing sidecar: ok=%v err=%v", ok, err)
	}
}
