package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thermbal/internal/store"
)

// buildSealedStore populates a tiny store, seals it, and returns the
// directory, a saved proof document, the body it commits to, and the
// chain head.
func buildSealedStore(t *testing.T) (dir, proofPath, bodyPath, chainHead string) {
	t.Helper()
	dir = t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true, Version: "test-engine/1"})
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"result":"thermproof-test"}`)
	if err := st.Put("aaaa1111", body); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("bbbb2222", []byte("second body")); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	p, err := st.Proof("aaaa1111")
	if err != nil {
		t.Fatal(err)
	}
	chainHead = st.Stats().ChainHead
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	proofPath = filepath.Join(dir, "proof.json")
	bodyPath = filepath.Join(dir, "body.json")
	if err := os.WriteFile(proofPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bodyPath, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, proofPath, bodyPath, chainHead
}

// tamperBody flips one byte of the first record's body in dir's sealed
// segment and returns that record's key.
func tamperBody(t *testing.T, dir string) string {
	t.Helper()
	seg := filepath.Join(dir, "00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("thermproof-test"))
	if i < 0 {
		t.Fatalf("%s does not hold the first record's body", seg)
	}
	data[i] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return "aaaa1111"
}

func TestVerifyProofModes(t *testing.T) {
	dir, proofPath, bodyPath, chainHead := buildSealedStore(t)

	if !verifyProof(proofPath, "", "", false) {
		t.Error("bare proof should verify")
	}
	if !verifyProof(proofPath, bodyPath, chainHead, true) {
		t.Error("proof + body + pinned chain should verify")
	}

	wrongBody := filepath.Join(dir, "wrong.json")
	if err := os.WriteFile(wrongBody, []byte("not the committed bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if verifyProof(proofPath, wrongBody, "", true) {
		t.Error("proof must not commit to different bytes")
	}
	if verifyProof(proofPath, "", "deadbeef", true) {
		t.Error("wrong pinned chain value should fail")
	}
	if verifyProof(filepath.Join(dir, "missing.json"), "", "", true) {
		t.Error("missing proof file should fail")
	}
	if verifyProof(proofPath, filepath.Join(dir, "missing-body.json"), "", true) {
		t.Error("missing body file should fail")
	}
	garbled := filepath.Join(dir, "garbled.json")
	if err := os.WriteFile(garbled, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if verifyProof(garbled, "", "", true) {
		t.Error("malformed proof JSON should fail")
	}

	// A tampered proof document: valid JSON, broken hash linkage.
	raw, err := os.ReadFile(proofPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["root"] = "0000000000000000000000000000000000000000000000000000000000000000"
	forged, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	forgedPath := filepath.Join(dir, "forged.json")
	if err := os.WriteFile(forgedPath, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if verifyProof(forgedPath, "", "", true) {
		t.Error("proof with a forged root should fail")
	}
}

func TestVerifyStoreModes(t *testing.T) {
	dir, _, _, chainHead := buildSealedStore(t)

	if !verifyStore(dir, "", false) {
		t.Error("clean store should verify")
	}
	if !verifyStore(dir, chainHead, true) {
		t.Error("clean store should verify against its own chain head")
	}
	if verifyStore(dir, "ffffffff", true) {
		t.Error("wrong pinned chain head should fail")
	}
	if verifyStore(filepath.Join(dir, "no-such-dir"), "", true) {
		t.Error("unreadable directory should fail")
	}

	// Flip one body byte in the sealed segment: the scan must
	// localize it and fail.
	tamperBody(t, dir)
	if verifyStore(dir, "", false) {
		t.Error("tampered store must fail verification")
	}
}

// TestRunExitStatuses drives the command's entry point: its exit
// status is the verdict scripts act on, and a failed store scan must
// name the tampered record's key.
func TestRunExitStatuses(t *testing.T) {
	dir, proofPath, bodyPath, chainHead := buildSealedStore(t)
	tampered, _, _, _ := buildSealedStore(t)
	tamperedKey := tamperBody(t, tampered)

	for _, tc := range []struct {
		name    string
		args    []string
		want    int
		wantOut []string
	}{
		{"clean store with pinned head", []string{"-data-dir", dir, "-chain-head", chainHead}, 0, []string{"ok: "}},
		{"proof with body", []string{"-proof", proofPath, "-body", bodyPath}, 0, []string{"ok: proof for key aaaa1111"}},
		{"tampered store", []string{"-data-dir", tampered}, 1, []string{"FAIL:", tamperedKey}},
		{"no arguments", nil, 2, []string{"nothing to verify"}},
		{"body without proof", []string{"-data-dir", dir, "-body", bodyPath}, 2, []string{"-body is only meaningful with -proof"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := run(tc.args, &out); got != tc.want {
				t.Errorf("run(%q) = %d, want %d; output:\n%s", tc.args, got, tc.want, &out)
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out.String(), want) {
					t.Errorf("run(%q) output lacks %q:\n%s", tc.args, want, &out)
				}
			}
		})
	}
}
