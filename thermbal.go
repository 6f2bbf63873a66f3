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
//	    Policy:  thermbal.ThermalBalance,
//	    Delta:   3,
//	    Package: thermbal.MobileEmbedded,
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
	"thermbal/internal/migrate"
	"thermbal/internal/policy"
	"thermbal/internal/request"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/store"
)

// PolicyKind selects the run-time management policy.
type PolicyKind int

const (
	// EnergyBalance is the static energy-balancing baseline: the
	// Table 2 mapping plus per-core DVFS, no run-time actions.
	EnergyBalance PolicyKind = iota
	// StopGo is the modified Stop&Go baseline: gate the core at the
	// upper threshold, restart at the lower one.
	StopGo
	// ThermalBalance is the paper's migration-based thermal balancing
	// policy.
	ThermalBalance
)

var policyNames = []string{EnergyBalance: "energy-balance", StopGo: "stop&go", ThermalBalance: "thermal-balance"}

// String names the policy.
func (p PolicyKind) String() string { return kindName(policyNames, "PolicyKind", int(p)) }

// PackageKind selects the thermal package.
type PackageKind int

const (
	// MobileEmbedded has seconds-scale thermal dynamics (paper [6]).
	MobileEmbedded PackageKind = iota
	// HighPerformance has 6x faster temperature variations.
	HighPerformance
)

var packageNames = []string{MobileEmbedded: "mobile-embedded", HighPerformance: "high-performance"}

// String names the package.
func (p PackageKind) String() string { return kindName(packageNames, "PackageKind", int(p)) }

// IntegratorKind selects the thermal integration scheme.
type IntegratorKind int

const (
	// EulerIntegrator is explicit forward Euler (default; the stability
	// bound forces the smallest substeps).
	EulerIntegrator IntegratorKind = iota
	// ExpmIntegrator is the exact matrix-exponential scheme: the RC
	// network is linear time-invariant, so one memoized dense
	// propagator pair replaces the whole substep loop with zero
	// truncation error; spans below a cost crossover fall back to
	// explicit Euler bit-for-bit.
	ExpmIntegrator
)

var integratorNames = []string{EulerIntegrator: "euler", ExpmIntegrator: "expm"}

// String names the integrator.
func (k IntegratorKind) String() string { return kindName(integratorNames, "IntegratorKind", int(k)) }

// kindName spells kind k as the wire name request.Canonicalize
// resolves. A value outside the table gets its Go-syntax spelling,
// which canonicalization then rejects as unknown.
func kindName(names []string, kind string, k int) string {
	if k >= 0 && k < len(names) {
		return names[k]
	}
	return fmt.Sprintf("%s(%d)", kind, k)
}

// Config describes one experiment. The default scenario is the SDR
// benchmark on the 3-core streaming MPSoC; any registered scenario can
// be selected by name.
type Config struct {
	// Scenario names a registered scenario ("sdr-radio",
	// "video-decoder", "pipeline-d8", ...). Empty selects "sdr-radio".
	// Scenarios returns the catalogue.
	Scenario string
	// PolicyName, when non-empty, selects any registered policy by name
	// or alias and takes precedence over Policy.
	PolicyName string
	// Policy is the management policy (default EnergyBalance). StopGo
	// and ThermalBalance act on Delta, so with a zero Delta they run at
	// the scenario's default threshold.
	Policy PolicyKind
	// Delta is the threshold distance from the mean temperature in °C
	// (used by StopGo and ThermalBalance; the paper sweeps 2..5). Zero
	// takes the scenario's default.
	Delta float64
	// Package selects the thermal package (default MobileEmbedded).
	Package PackageKind
	// WarmupS is the initial phase before the policy engages
	// (default 12.5 s, the paper's first execution phase).
	WarmupS float64
	// MeasureS is the measurement window (default 30 s).
	MeasureS float64
	// QueueCap is the inter-task queue capacity in frames, at most
	// 65536 (default: the scenario's graph.queue_cap; 11, the paper's
	// minimum sustainable size, for every builtin).
	QueueCap int
	// Recreation selects the task-recreation migration mechanism
	// instead of the default task-replication.
	Recreation bool
	// Integrator selects the thermal integration scheme (default
	// EulerIntegrator, the paper-equivalent explicit scheme).
	Integrator IntegratorKind
}

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

// RunSpec executes one experiment on a declarative scenario spec
// instead of a registered name. cfg.Scenario must be empty; every
// other Config field applies as in Run.
func RunSpec(sp ScenarioSpec, cfg Config) (Result, error) { return run(cfg.toRequest(&sp)) }

// Run executes one experiment.
func Run(cfg Config) (Result, error) { return run(cfg.toRequest(nil)) }

// run executes a request exactly as the service, RunSummary and
// Store.RunSummary do: canonicalization resolves every spelling and
// default, so all facade paths agree by construction.
func run(req request.Request) (Result, error) {
	_, rc, err := request.Canonicalize(req)
	if err != nil {
		return Result{}, err
	}
	res, _, err := experiment.Run(rc)
	return res, err
}

// Store is a durable, content-addressed cache of run results on local
// disk: the same append-only segment-log store cmd/thermservd serves
// from (internal/store), behind the facade's Config vocabulary. Runs
// are keyed by the canonical request (the thermbal/run/v1 SHA-256
// scheme), so a result computed once — by this process, an earlier
// process, or a thermservd pointed at the same directory — is served
// from disk byte-for-byte instead of recomputed.
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

// StoreStats summarises the store's on-disk state.
type StoreStats struct {
	// Segments and Records describe the log; Bytes is its on-disk size.
	Segments int
	Records  int
	Bytes    int64
	// SealedSegments counts segments sealed under a Merkle root;
	// ChainLen and ChainHead describe the hash chain those roots form
	// (pin ChainHead out-of-band to make truncation detectable).
	SealedSegments int
	ChainLen       int
	ChainHead      string
}

// Stats snapshots the store.
func (s *Store) Stats() StoreStats {
	st := s.st.Stats()
	return StoreStats{
		Segments: st.Segments, Records: st.Records, Bytes: st.Bytes,
		SealedSegments: st.SealedSegments, ChainLen: st.ChainLen, ChainHead: st.ChainHead,
	}
}

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

// toRequest maps a facade Config (on the spec sp, when non-nil) onto
// the wire request, whose canonicalization defines both what executes
// and the persistent cache identity.
func (c Config) toRequest(sp *ScenarioSpec) request.Request {
	polName := c.PolicyName
	if polName == "" {
		polName = c.Policy.String()
	}
	mech := ""
	if c.Recreation {
		mech = migrate.Recreation.String()
	}
	return request.Request{
		Scenario:   c.Scenario,
		Spec:       sp,
		Policy:     polName,
		Delta:      c.Delta,
		Package:    c.Package.String(),
		WarmupS:    c.WarmupS,
		MeasureS:   c.MeasureS,
		QueueCap:   c.QueueCap,
		Mechanism:  mech,
		Integrator: c.Integrator.String(),
	}
}

// RunSummary executes one experiment through the store: a request
// whose canonical form is already on disk is served from it (hit =
// true) without running the engine; otherwise the run executes and its
// document is persisted before returning. The summary bytes a hit
// decodes are exactly the bytes the original run encoded.
func (s *Store) RunSummary(cfg Config) (Summary, bool, error) {
	canon, rc, err := request.Canonicalize(cfg.toRequest(nil))
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
