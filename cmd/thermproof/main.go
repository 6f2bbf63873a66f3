// Command thermproof verifies run provenance offline: no server, no
// network, nothing but the files on disk and SHA-256.
//
// Two modes, combinable:
//
//	thermproof -data-dir /var/lib/thermbal
//	    Full store scan: re-read every record of every segment,
//	    recompute every sealed Merkle root and every link of the root
//	    hash chain, and localize the first divergent record if any
//	    byte changed since sealing.
//
//	thermproof -proof proof.json [-body result.json]
//	    Verify one inclusion proof document (the body of GET /proof,
//	    saved verbatim): leaf hash → Merkle root → chain link. With
//	    -body, additionally require the proof to commit to exactly
//	    those result bytes.
//
// Either mode accepts -chain-head <hex>, a chain value pinned
// out-of-band (for example logged at seal time, or published). For a
// store scan it must equal the recomputed chain head, which defeats
// whole-manifest truncation: a verifier holding the pinned head
// cannot be satisfied by a shortened-but-internally-consistent chain.
// For a single proof it must equal the proof's chain value at its
// position.
//
// Exit status: 0 when everything verifies, 1 on any mismatch, 2 on
// usage errors. Mismatches are reported on stderr with the segment,
// record index and key when the failure can be localized.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"thermbal/internal/provenance"
	"thermbal/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run verifies what args name, reporting on stderr, and returns the
// exit status: 0 when everything verifies, 1 on any mismatch, 2 on
// usage errors.
func run(args []string, stderr io.Writer) int {
	log.SetFlags(0)
	log.SetPrefix("thermproof: ")
	log.SetOutput(stderr)

	fs := flag.NewFlagSet("thermproof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataDir   = fs.String("data-dir", "", "store directory to verify end to end (read-only)")
		proofFile = fs.String("proof", "", "inclusion-proof JSON document to verify (a saved GET /proof body)")
		bodyFile  = fs.String("body", "", "result body the -proof must commit to (optional)")
		chainHead = fs.String("chain-head", "", "pinned chain value (hex) the store's chain head — or the proof's chain link — must equal")
		quiet     = fs.Bool("q", false, "suppress the ok-summary on success (failures always print)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *dataDir == "" && *proofFile == "" {
		fmt.Fprintln(stderr, "thermproof: nothing to verify; pass -data-dir and/or -proof")
		fs.Usage()
		return 2
	}
	if *bodyFile != "" && *proofFile == "" {
		fmt.Fprintln(stderr, "thermproof: -body is only meaningful with -proof")
		return 2
	}

	ok := true
	if *proofFile != "" {
		ok = verifyProof(*proofFile, *bodyFile, *chainHead, *quiet) && ok
	}
	if *dataDir != "" {
		ok = verifyStore(*dataDir, *chainHead, *quiet) && ok
	}
	if !ok {
		return 1
	}
	return 0
}

// verifyProof checks one saved proof document, optionally against the
// result bytes it should commit to and a pinned chain value.
func verifyProof(path, bodyPath, pinnedChain string, quiet bool) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Printf("FAIL: %v", err)
		return false
	}
	// GET /proof wraps the proof with a schema_version sibling; a bare
	// provenance.Proof decodes identically since unknown fields are
	// ignored here (the proof is self-authenticating — every field that
	// matters is hashed).
	var p provenance.Proof
	if err := json.Unmarshal(raw, &p); err != nil {
		log.Printf("FAIL: %s: %v", path, err)
		return false
	}
	if err := p.Verify(); err != nil {
		log.Printf("FAIL: %s: %v", path, err)
		return false
	}
	if bodyPath != "" {
		body, err := os.ReadFile(bodyPath)
		if err != nil {
			log.Printf("FAIL: %v", err)
			return false
		}
		if err := p.VerifyBody(body); err != nil {
			log.Printf("FAIL: %s does not commit to %s: %v", path, bodyPath, err)
			return false
		}
	}
	if pinnedChain != "" && p.Chain != pinnedChain {
		log.Printf("FAIL: %s: chain value %s at pos %d differs from the pinned %s",
			path, p.Chain, p.ChainPos, pinnedChain)
		return false
	}
	if !quiet {
		extra := ""
		if bodyPath != "" {
			extra = ", commits to " + bodyPath
		}
		log.Printf("ok: proof for key %s verifies (engine %q, segment %08d, leaf %d of %d, chain pos %d%s)",
			p.Leaf.Key, p.Leaf.Version, p.Segment, p.Index, p.TreeSize, p.ChainPos, extra)
	}
	return true
}

// verifyStore rescans a store directory against its sealed roots.
func verifyStore(dir, pinnedChain string, quiet bool) bool {
	rep, err := store.VerifyDir(dir)
	for _, bad := range rep.Bad {
		log.Printf("FAIL: %s", bad)
	}
	if err != nil && len(rep.Bad) == 0 {
		// Not a verification verdict but an inability to verify at all
		// (unreadable directory, I/O error).
		log.Printf("FAIL: %v", err)
		return false
	}
	if pinnedChain != "" && rep.ChainHead != pinnedChain {
		log.Printf("FAIL: %s: chain head %s differs from the pinned %s (possible manifest truncation)",
			dir, rep.ChainHead, pinnedChain)
		return false
	}
	if err != nil {
		return false
	}
	if !quiet {
		note := ""
		if rep.UnsealedRecords > 0 {
			note = fmt.Sprintf("; %d records in the unsealed tail are not yet covered", rep.UnsealedRecords)
		}
		if rep.TailTruncated > 0 {
			note += fmt.Sprintf("; %d torn tail bytes (benign kill artifact)", rep.TailTruncated)
		}
		log.Printf("ok: %s verifies — %d records across %d segments, %d sealed under a %d-link chain (head %s)%s",
			dir, rep.Records, rep.Segments, rep.SealedRecords, rep.ChainLen, rep.ChainHead, note)
	}
	return true
}
