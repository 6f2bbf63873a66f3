// Package request turns user spellings into a run identity: the wire
// forms of a run and of a scenarios × policies sweep, their
// canonicalization against the scenario and policy catalogues (every
// alias resolved, every default explicit), the content-address key
// scheme, and the schema documents a run or sweep is served and stored
// as. The CLIs, the library facade and the HTTP service all resolve
// through it, so equal requests mean equal runs, keys and bytes
// everywhere; it imports nothing above the experiment layer.
package request

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/stream"
	"thermbal/internal/thermal"
)

// Request is the wire form of one simulation request (POST /run, run
// jobs) and the library facade's thermbal.Config. Every field is
// optional: zero values select the scenario's or the paper's defaults,
// exactly as the CLIs do. Canonicalize resolves aliases and fills
// defaults, so two requests that mean the same run hash to the same
// cache key regardless of spelling or which fields were spelled out.
type Request struct {
	// Scenario names a registered scenario (empty: "sdr-radio").
	Scenario string `json:"scenario"`
	// Spec is an inline declarative scenario, mutually exclusive with
	// Scenario. A spec identical to a builtin's canonicalizes onto the
	// builtin's name, so both spellings share one content address;
	// anything else is keyed by the spec's canonical hash. The pointer
	// is omitted empty so pre-spec documents and keys are unchanged.
	Spec *scenario.Spec `json:"spec,omitempty"`
	// Policy is a registered policy name or alias (empty: the
	// scenario's default policy).
	Policy string `json:"policy"`
	// Delta is the threshold distance from the mean temperature in °C
	// (0: the scenario's default).
	Delta float64 `json:"delta"`
	// Package is "mobile-embedded" or "high-performance" (aliases
	// "mobile", "embedded", "highperf", "hp"; empty: mobile-embedded).
	Package string `json:"package"`
	// WarmupS is the phase before the policy engages (<= 0: the
	// scenario's default, else the paper's 12.5 s).
	WarmupS float64 `json:"warmup_s"`
	// MeasureS is the measurement window (<= 0: the scenario's
	// default, else the paper's 30 s).
	MeasureS float64 `json:"measure_s"`
	// QueueCap is the inter-task queue capacity in frames, at most
	// 65536 (<= 0: the scenario's graph.queue_cap, 11 for every
	// builtin). Queues whose spec sets their own cap keep it.
	QueueCap int `json:"queue_cap"`
	// Mechanism is "task-replication" or "task-recreation" (short
	// forms "replication"/"recreation"; empty: task-replication).
	Mechanism string `json:"mechanism"`
	// Integrator is "euler" or "expm" (empty: euler).
	Integrator string `json:"integrator"`

	// specHash is the inline spec's content hash, set by Canonicalize:
	// Key reads it instead of normalizing the spec again.
	specHash string
}

// canonShared resolves the fields Request and MatrixRequest spell
// alike into the run configuration they select: it rejects a negative
// or non-finite delta, parses the package, mechanism and integrator
// spellings, and refuses a queue capacity past the spec's bound; a
// non-positive one stays 0, "the scenario's".
func canonShared(delta float64, pkg, mech, integrator string, queueCap int) (rc experiment.RunConfig, err error) {
	if err := experiment.CheckDelta(delta); err != nil {
		return rc, err
	}
	if rc.Package, err = ParsePackage(pkg); err != nil {
		return rc, err
	}
	if rc.Mechanism, err = ParseMechanism(mech); err != nil {
		return rc, err
	}
	if rc.Thermal, err = thermal.ParseScheme(integrator); err != nil {
		return rc, err
	}
	if queueCap > scenario.MaxQueueCap {
		return rc, fmt.Errorf("queue capacity %d exceeds the limit of %d frames", queueCap, scenario.MaxQueueCap)
	}
	rc.QueueCap = max(queueCap, 0)
	return rc, nil
}

// Canonicalize resolves req against the catalogues into its canonical
// form — aliases replaced by canonical names, every default made
// explicit — plus the experiment configuration that executes it. The
// canonical form is the cache identity: requests differing only in
// spelling or omitted defaults canonicalize identically.
func Canonicalize(req Request) (Request, experiment.RunConfig, error) {
	var c Request
	var sc scenario.Scenario
	var err error
	switch {
	case req.Spec != nil && req.Scenario != "":
		return Request{}, experiment.RunConfig{}, fmt.Errorf(`"spec" and "scenario" are mutually exclusive`)
	case req.Spec != nil:
		// The spec's one normalization: its hash serves both the
		// builtin collapse and Key.
		if sc, err = scenario.FromSpec(*req.Spec); err != nil {
			return Request{}, experiment.RunConfig{}, err
		}
		if c.specHash, err = sc.Hash(); err != nil {
			return Request{}, experiment.RunConfig{}, err
		}
		if name, ok := scenario.BuiltinNameForSpec(c.specHash); ok {
			// The spec IS a builtin: rewrite to the named request and
			// recurse, so both spellings canonicalize — cache, coalesce
			// and persist — to one content address. Labels the spec
			// carries fill in first; labels it omits take the
			// builtin's values.
			named := req
			named.Spec = nil
			named.Scenario = name
			named.Policy = cmp.Or(named.Policy, sc.DefaultPolicy)
			named.Delta = cmp.Or(named.Delta, sc.DefaultDelta)
			if named.WarmupS <= 0 {
				named.WarmupS = sc.WarmupS
			}
			if named.MeasureS <= 0 {
				named.MeasureS = sc.MeasureS
			}
			return Canonicalize(named)
		}
		// FromSpec stores the normalized spec; that is the canonical
		// inline form (defaults explicit, field order frozen).
		c.Spec = &sc.Spec
	default:
		sc, err = LookupScenario(req.Scenario)
		if err != nil {
			return Request{}, experiment.RunConfig{}, err
		}
		c.Scenario = sc.Name
	}
	// An inline spec that names no default policy or delta runs the
	// paper's balancer at ±3 °C; every builtin names both.
	c.Policy, err = ResolvePolicy(cmp.Or(req.Policy, sc.DefaultPolicy, "thermal-balance"))
	if err != nil {
		return Request{}, experiment.RunConfig{}, err
	}
	rc, err := canonShared(req.Delta, req.Package, req.Mechanism, req.Integrator, req.QueueCap)
	if err != nil {
		return Request{}, experiment.RunConfig{}, err
	}
	c.Delta = cmp.Or(req.Delta, sc.DefaultDelta, 3)
	c.Package, c.QueueCap = rc.Package.String(), experiment.QueueCap(sc, rc.QueueCap)
	if err := sc.CheckPrefill(c.QueueCap); err != nil {
		return Request{}, experiment.RunConfig{}, err
	}
	c.Mechanism, c.Integrator = rc.Mechanism.String(), rc.Thermal.String()
	// Phase and queue-capacity defaulting are experiment.Run's own
	// cascades, so the cache identity always matches what executes.
	if c.WarmupS, c.MeasureS, err = experiment.Phases(sc, req.WarmupS, req.MeasureS); err != nil {
		return Request{}, experiment.RunConfig{}, err
	}
	rc.Scenario, rc.PolicyName, rc.Delta, rc.QueueCap = c.Scenario, c.Policy, c.Delta, c.QueueCap
	rc.WarmupS, rc.MeasureS = c.WarmupS, c.MeasureS
	if c.Spec != nil {
		rc.Resolved = &sc
	}
	return c, rc, nil
}

// fnum formats a float for the key string: shortest round-trip form,
// deterministic across processes and platforms.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// keyString serializes a canonical request field by field in a fixed
// order. It is the hash pre-image, so its layout is frozen: any change
// must bump the leading version tag.
func (c Request) keyString() string {
	scenarioID := c.Scenario
	if c.Spec != nil {
		// Inline specs are identified by their canonical hash. The
		// "spec:" prefix cannot collide with a registered name (names
		// never contain ':'), so the v1 scheme accommodates both.
		if c.specHash == "" {
			panic("request: Key of an inline spec Canonicalize did not hash")
		}
		scenarioID = "spec:" + c.specHash
	}
	return strings.Join([]string{
		"thermbal/run/v1",
		"scenario=" + scenarioID,
		"policy=" + c.Policy,
		"delta=" + fnum(c.Delta),
		"package=" + c.Package,
		"warmup_s=" + fnum(c.WarmupS),
		"measure_s=" + fnum(c.MeasureS),
		"queue_cap=" + strconv.Itoa(c.QueueCap),
		"mechanism=" + c.Mechanism,
		"integrator=" + c.Integrator,
	}, "|")
}

// Key returns the content address of a canonical request: the SHA-256
// of its fixed-order serialization, hex-encoded. Stable across
// processes, platforms and restarts, so keys are valid persistent
// identities for results. Call only on Canonicalize output — raw wire
// requests with distinct spellings would hash apart, and Key panics on
// an inline spec Canonicalize did not hash.
func (c Request) Key() string { return hashKey(c.keyString()) }

// hashKey is the hex SHA-256 of a key pre-image.
func hashKey(pre string) string {
	sum := sha256.Sum256([]byte(pre))
	return hex.EncodeToString(sum[:])
}

// MatrixRequest is the wire form of a batched scenarios × policies
// sweep (POST /matrix, matrix jobs). Empty axes select every
// registered name.
type MatrixRequest struct {
	// Scenarios lists registered scenario names (empty: all).
	Scenarios []string `json:"scenarios"`
	// Policies lists registered policy names or aliases (empty: all).
	Policies []string `json:"policies"`
	// Delta is the threshold for every cell (0: each scenario's
	// default).
	Delta float64 `json:"delta"`
	// Package, Mechanism and Integrator follow Request's spellings.
	Package    string `json:"package"`
	Mechanism  string `json:"mechanism"`
	Integrator string `json:"integrator"`
	// WarmupS / MeasureS override every cell's phases when positive;
	// 0 keeps each scenario's defaults.
	WarmupS  float64 `json:"warmup_s"`
	MeasureS float64 `json:"measure_s"`
	// QueueCap overrides the queue capacity when positive, up to 65536
	// (<= 0: 11, every builtin's graph.queue_cap).
	QueueCap int `json:"queue_cap"`
}

// CanonicalizeMatrix resolves a matrix request into its canonical form
// (MatrixCells decomposes that into the runs that execute it).
func CanonicalizeMatrix(req MatrixRequest) (MatrixRequest, error) {
	var c MatrixRequest
	if len(req.Scenarios) == 0 {
		c.Scenarios = scenario.Names()
	} else {
		seen := map[string]bool{}
		for _, name := range req.Scenarios {
			sc, err := LookupScenario(strings.TrimSpace(name))
			if err != nil {
				return MatrixRequest{}, err
			}
			if !seen[sc.Name] {
				seen[sc.Name] = true
				c.Scenarios = append(c.Scenarios, sc.Name)
			}
		}
	}
	if len(req.Policies) == 0 {
		c.Policies = policy.Names()
	} else {
		seen := map[string]bool{}
		for _, name := range req.Policies {
			canon, err := ResolvePolicy(strings.TrimSpace(name))
			if err != nil {
				return MatrixRequest{}, err
			}
			if !seen[canon] {
				seen[canon] = true
				c.Policies = append(c.Policies, canon)
			}
		}
	}
	rc, err := canonShared(req.Delta, req.Package, req.Mechanism, req.Integrator, req.QueueCap)
	if err != nil {
		return MatrixRequest{}, err
	}
	c.Delta = req.Delta
	c.Package, c.QueueCap = rc.Package.String(), cmp.Or(rc.QueueCap, stream.DefaultQueueCap)
	c.Mechanism, c.Integrator = rc.Mechanism.String(), rc.Thermal.String()
	c.WarmupS = max(req.WarmupS, 0)
	c.MeasureS = max(req.MeasureS, 0)
	return c, nil
}

// keyString is the matrix hash pre-image; layout frozen like
// Request.keyString.
func (c MatrixRequest) keyString() string {
	return strings.Join([]string{
		"thermbal/matrix/v1",
		"scenarios=" + strings.Join(c.Scenarios, ","),
		"policies=" + strings.Join(c.Policies, ","),
		"delta=" + fnum(c.Delta),
		"package=" + c.Package,
		"warmup_s=" + fnum(c.WarmupS),
		"measure_s=" + fnum(c.MeasureS),
		"queue_cap=" + strconv.Itoa(c.QueueCap),
		"mechanism=" + c.Mechanism,
		"integrator=" + c.Integrator,
	}, "|")
}

// Key returns the content address of a canonical matrix request.
func (c MatrixRequest) Key() string { return hashKey(c.keyString()) }

// ---------------------------------------------------------------------
// Response documents.

// RunDoc is the /run response and `thermsim -json` output: the
// versioned schema document for one run.
type RunDoc struct {
	SchemaVersion int `json:"schema_version"`
	// Kind is "run".
	Kind string `json:"kind"`
	// Key is the content address of the canonical request.
	Key string `json:"key"`
	// Request is the canonical request: every alias resolved, every
	// default explicit.
	Request Request `json:"request"`
	// Result is the versioned run summary.
	Result experiment.Summary `json:"result"`
}

// NewRunDoc builds the schema document for one executed run.
func NewRunDoc(canon Request, res sim.Result) RunDoc {
	return RunDoc{
		SchemaVersion: experiment.SchemaVersion,
		Kind:          "run",
		Key:           canon.Key(),
		Request:       canon,
		Result:        experiment.Summarize(res),
	}
}

// MatrixCellDoc is one (scenario, policy) outcome of a matrix sweep.
// Result holds the encoded experiment.Summary as raw JSON: the cell's
// run document's result block spliced verbatim, so a sweep cell and a
// direct /run of the same configuration carry identical bytes.
type MatrixCellDoc struct {
	Scenario string          `json:"scenario"`
	Policy   string          `json:"policy"`
	Result   json.RawMessage `json:"result"`
}

// MatrixDoc is the /matrix response document.
type MatrixDoc struct {
	SchemaVersion int           `json:"schema_version"`
	Kind          string        `json:"kind"` // "matrix"
	Key           string        `json:"key"`
	Request       MatrixRequest `json:"request"`
	// Cells are scenario-major, in the canonical axis order.
	Cells []MatrixCellDoc `json:"cells"`
}

// Cell is one (scenario, policy) cell of a decomposed matrix sweep: a
// fully canonical run request plus its execution configuration. Its
// content address (Request.Key()) is identical to a direct /run of the
// same configuration.
type Cell struct {
	Request Request
	Config  experiment.RunConfig
}

// MatrixCells decomposes a canonical matrix request into its cells:
// one fully canonical run request (plus its execution configuration)
// per (scenario, policy) pair, scenario-major in the canonical axis
// order. Each cell's key is the same content address a direct /run of
// that configuration uses, which is what lets sweep results persist —
// and restart-resume — cell by cell.
func MatrixCells(canon MatrixRequest) ([]Cell, error) {
	cells := make([]Cell, 0, len(canon.Scenarios)*len(canon.Policies))
	for _, sn := range canon.Scenarios {
		for _, pn := range canon.Policies {
			req, rc, err := Canonicalize(Request{
				Scenario:   sn,
				Policy:     pn,
				Delta:      canon.Delta,
				Package:    canon.Package,
				WarmupS:    canon.WarmupS,
				MeasureS:   canon.MeasureS,
				QueueCap:   canon.QueueCap,
				Mechanism:  canon.Mechanism,
				Integrator: canon.Integrator,
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, Cell{Request: req, Config: rc})
		}
	}
	return cells, nil
}

// RunMatrix canonicalizes req and runs its cells on r's worker pool,
// returning one display row per cell in cell order: the in-process
// form of a /matrix sweep, for the CLIs.
func RunMatrix(ctx context.Context, r experiment.Runner, req MatrixRequest) ([]experiment.MatrixCell, error) {
	canon, err := CanonicalizeMatrix(req)
	if err != nil {
		return nil, err
	}
	cells, err := MatrixCells(canon)
	if err != nil {
		return nil, err
	}
	cfgs := make([]experiment.RunConfig, len(cells))
	for i, c := range cells {
		cfgs[i] = c.Config
	}
	results, err := experiment.RunAll(ctx, r, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]experiment.MatrixCell, len(cells))
	for i, c := range cells {
		out[i] = experiment.MatrixCell{Scenario: c.Request.Scenario, Policy: c.Request.Policy, Result: results[i]}
	}
	return out, nil
}

// AssembleMatrixDoc splices individually persisted per-cell run bodies
// into the whole-sweep document. Each cell body is the encoded RunDoc
// the cell's execution produced (or a store/cache hit of it); its raw
// result block is lifted verbatim.
func AssembleMatrixDoc(canon MatrixRequest, cells []Cell, bodies [][]byte) (MatrixDoc, error) {
	doc := MatrixDoc{
		SchemaVersion: experiment.SchemaVersion,
		Kind:          "matrix",
		Key:           canon.Key(),
		Request:       canon,
		Cells:         make([]MatrixCellDoc, len(cells)),
	}
	for i, cell := range cells {
		var run struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(bodies[i], &run); err != nil {
			return MatrixDoc{}, fmt.Errorf("cell %s/%s: %w", cell.Request.Scenario, cell.Request.Policy, err)
		}
		doc.Cells[i] = MatrixCellDoc{
			Scenario: cell.Request.Scenario,
			Policy:   cell.Request.Policy,
			Result:   run.Result,
		}
	}
	return doc, nil
}

// EncodeDoc is the one encoder every schema document goes through —
// the service handlers, job results and `thermsim -json` alike — so
// equal documents are equal bytes everywhere: compact JSON plus a
// trailing newline.
func EncodeDoc(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// JournalPrefix is the reserved key namespace of the service's job
// journal: no run or matrix key (a hex digest) can fall inside it.
const JournalPrefix = "job/"

// JournalPinned is the store pin predicate for the job journal: pass
// it in store.Options so size-budget eviction can never drop journal
// records (result records are all evictable — they can be recomputed;
// a journal record is the only trace of an accepted job).
func JournalPinned(key string) bool { return strings.HasPrefix(key, JournalPrefix) }
