// Package thermbal is a full reproduction of "Thermal Balancing Policy
// for Streaming Computing on Multiprocessor Architectures" (Mulas et
// al., DATE 2008): a thermal-aware MPSoC emulation framework, a
// MiGra-style migration-based thermal balancing policy, the baseline
// policies the paper compares against, and the Software Defined Radio
// streaming benchmark the evaluation uses.
//
// The package is the public facade: it exposes experiment configuration
// and execution without leaking the internal substrate packages. A
// typical use:
//
//	res, err := thermbal.Run(thermbal.Config{
//	    Policy:  "thermal-balance",
//	    Delta:   3,
//	    Package: "mobile-embedded",
//	})
//	fmt.Printf("std dev %.2f °C, %d misses, %.1f migrations/s\n",
//	    res.PooledStdDev, res.DeadlineMisses, res.MigrationsPerSec)
//
// Every table and figure of the paper can be regenerated through the
// Table*/Figure* helpers or the cmd/figures binary.
package thermbal

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	"thermbal/internal/request"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/store"
)

// Config describes one experiment. It is the wire request the
// simulation service's POST /run decodes and `thermsim` builds from its
// flags, so the three share one set of spellings and defaults: every
// field is optional, names and aliases resolve through the scenario and
// policy catalogues, and Config{} runs the default scenario (sdr-radio)
// under its default policy and threshold, exactly as `POST /run {}` and
// a flagless thermsim do. Spec selects an inline declarative scenario
// instead of a registered name.
type Config = request.Request

// Result is the outcome of a run over its measurement window.
// It mirrors the metrics of the paper's Section 5: temperature
// deviation, QoS (deadline misses) and migration overhead.
type Result = sim.Result

// SchemaVersion is the version of the JSON result schema shared by
// the simulation service (cmd/thermservd), `thermsim -json` and
// Summarize. Breaking field changes bump it; additions do not.
const SchemaVersion = experiment.SchemaVersion

// Summary is the versioned JSON view of a Result: the paper's
// Section 5 statistics (spatial/temporal temperature variance,
// deadline misses, migration counts, energy) grouped into wire-stable
// blocks with stable field names.
type Summary = experiment.Summary

// Summarize converts a Result into the versioned JSON schema view.
func Summarize(r Result) Summary { return experiment.Summarize(r) }

// RunSummary executes one experiment and returns its result in the
// versioned JSON schema — the same document body the simulation
// service caches and serves.
func RunSummary(cfg Config) (Summary, error) {
	res, err := Run(cfg)
	if err != nil {
		return Summary{}, err
	}
	return Summarize(res), nil
}

// ScenarioSpec is the declarative scenario description (schema v1):
// the task graph with rates and loads, the platform (core count or
// asymmetric core tiles, DVFS ladder, power coefficients, ambient) and
// optional load modulation. Specs validate hard (cycles, dangling
// edges, nonphysical values are structured errors) and have a frozen
// canonical serialization, so equal specs share one content address.
type ScenarioSpec = scenario.Spec

// GenerateScenario returns the deterministic scenario spec for a seed.
// The spec is a pure function of the seed, so generated workloads
// cache, persist and coalesce like built-ins.
func GenerateScenario(seed int64) ScenarioSpec { return scenario.Generate(seed) }

// Run executes one experiment: the same canonicalization and engine
// run the service's /run and thermsim perform, so equal configurations
// run identically on every path.
func Run(cfg Config) (Result, error) {
	_, rc, err := request.Canonicalize(cfg)
	if err != nil {
		return Result{}, err
	}
	res, _, err := experiment.Run(rc)
	return res, err
}

// Store is a durable, content-addressed cache of run results on local
// disk: the same append-only segment-log store cmd/thermservd serves
// from (internal/store). Runs are keyed by the canonical request (the
// thermbal/run/v1 SHA-256 scheme), so a result computed once — by this
// process, an earlier process, or a thermservd pointed at the same
// directory — is served from disk byte-for-byte instead of recomputed.
type Store struct {
	st *store.Store
}

// OpenStore opens (or creates) a result store rooted at dir,
// recovering cleanly from a previous process kill (a partial final
// record is truncated away; intact records all survive). Records are
// stamped with the engine version and sealed under Merkle roots as
// segments rotate, so results written here are verifiable offline
// with cmd/thermproof.
func OpenStore(dir string) (*Store, error) {
	st, err := store.Open(dir, store.Options{
		Pinned:  request.JournalPinned,
		Version: experiment.EngineVersion,
	})
	if err != nil {
		return nil, err
	}
	return &Store{st: st}, nil
}

// Close flushes and closes the store.
func (s *Store) Close() error { return s.st.Close() }

// StoreStats summarises the store's on-disk state and its counters
// since OpenStore.
type StoreStats = store.Stats

// Stats snapshots the store.
func (s *Store) Stats() StoreStats { return s.st.Stats() }

// Seal rotates the active segment, sealing everything written so far
// under a Merkle root in the provenance chain. Results are provable
// (and offline-verifiable) only once sealed; the store also seals
// automatically whenever a segment fills.
func (s *Store) Seal() error { return s.st.Seal() }

// Verify rescans every record on disk against the sealed Merkle roots
// and the root hash chain, returning nil when everything checks out
// and an error naming the first divergent record otherwise. Purely
// read-only; see cmd/thermproof for the out-of-process form.
func (s *Store) Verify() error {
	_, err := s.st.Verify()
	return err
}

// RunSummary executes one experiment through the store: a request
// whose canonical form is already on disk is served from it (hit =
// true) without running the engine; otherwise the run executes and its
// document is persisted before returning. The summary bytes a hit
// decodes are exactly the bytes the original run encoded.
func (s *Store) RunSummary(cfg Config) (Summary, bool, error) {
	canon, rc, err := request.Canonicalize(cfg)
	if err != nil {
		return Summary{}, false, err
	}
	key := canon.Key()
	if body, ok, err := s.st.Get(key); err == nil && ok {
		var doc request.RunDoc
		if err := json.Unmarshal(body, &doc); err == nil {
			return doc.Result, true, nil
		}
		// An undecodable stored document falls through to recompute
		// (and overwrite) rather than failing the run.
	}
	res, _, err := experiment.Run(rc)
	if err != nil {
		return Summary{}, false, err
	}
	doc := request.NewRunDoc(canon, res)
	body, err := request.EncodeDoc(doc)
	if err == nil {
		err = s.st.Put(key, body)
	}
	if err != nil {
		return doc.Result, false, fmt.Errorf("run succeeded but persisting it failed: %w", err)
	}
	return doc.Result, false, nil
}

// Scenarios returns the names of every registered scenario.
func Scenarios() []string { return scenario.Names() }

// Policies returns the canonical names of every registered policy.
func Policies() []string { return policy.Names() }

// Deltas is the paper's threshold sweep (2..5 °C).
func Deltas() []float64 {
	return append([]float64(nil), experiment.Deltas...)
}

// Table1 renders the component power table (paper Table 1).
func Table1() string { return experiment.FormatTable1() }

// Table2 renders the application mapping (paper Table 2).
func Table2() (string, error) { return experiment.FormatTable2() }

// Figure2 renders the migration cost curves (paper Figure 2).
func Figure2() (string, error) {
	rows, err := experiment.Fig2(context.Background(), experiment.Options{}, nil)
	if err != nil {
		return "", err
	}
	return experiment.FormatFig2(rows), nil
}

// WriteAllFigures regenerates every table and figure of the paper's
// evaluation and writes them to w. This runs the full sweeps (both
// packages, three policies, four thresholds) and takes a few seconds.
func WriteAllFigures(w io.Writer) error {
	return experiment.WriteArtifacts(context.Background(), w, experiment.Options{}, experiment.PaperArtifacts, nil)
}
