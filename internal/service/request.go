package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"thermbal/internal/cliutil"
	"thermbal/internal/experiment"
	"thermbal/internal/migrate"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/stream"
)

// Request is the wire form of one simulation request (POST /run, run
// jobs). Every field is optional: zero values select the scenario's or
// the paper's defaults, exactly as the CLIs do. Canonicalize resolves
// aliases and fills defaults, so two requests that mean the same run
// hash to the same cache key regardless of spelling or which fields
// were spelled out.
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
	// QueueCap is the inter-task queue capacity in frames (<= 0: 11).
	QueueCap int `json:"queue_cap"`
	// Mechanism is "task-replication" or "task-recreation" (short
	// forms "replication"/"recreation"; empty: task-replication).
	Mechanism string `json:"mechanism"`
	// Integrator is "euler" or "expm" (empty: euler).
	Integrator string `json:"integrator"`
}

// parsePackage resolves a package spelling; empty selects the mobile
// package, mirroring the CLIs' flag default.
func parsePackage(name string) (experiment.PackageSel, error) {
	if name == "" {
		return experiment.Mobile, nil
	}
	return cliutil.ParsePackage(name)
}

// ParseMechanism resolves a migration-mechanism spelling.
func ParseMechanism(name string) (migrate.Mechanism, error) {
	switch name {
	case "", "replication", "task-replication":
		return migrate.Replication, nil
	case "recreation", "task-recreation":
		return migrate.Recreation, nil
	}
	return migrate.Replication, fmt.Errorf("unknown mechanism %q (task-replication | task-recreation)", name)
}

// Canonicalize resolves req against the registries into its canonical
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
		if name, ok := scenario.BuiltinNameForSpec(*req.Spec); ok {
			// The spec IS a builtin: rewrite to the named request and
			// recurse, so both spellings canonicalize — cache, coalesce
			// and persist — to one content address. The spec's own
			// defaults fill in first so its semantics survive the
			// rewrite even when its labels differ from the builtin's.
			n, nerr := req.Spec.Normalize()
			if nerr != nil {
				return Request{}, experiment.RunConfig{}, nerr
			}
			named := req
			named.Spec = nil
			named.Scenario = name
			if named.Policy == "" {
				named.Policy = n.DefaultPolicy
			}
			if named.Delta == 0 {
				named.Delta = n.DefaultDelta
			}
			if named.WarmupS <= 0 {
				named.WarmupS = n.WarmupS
			}
			if named.MeasureS <= 0 {
				named.MeasureS = n.MeasureS
			}
			return Canonicalize(named)
		}
		sc, err = scenario.FromSpec(*req.Spec)
		if err != nil {
			return Request{}, experiment.RunConfig{}, err
		}
		// FromSpec stores the normalized spec; that is the canonical
		// inline form (defaults explicit, field order frozen).
		c.Spec = sc.Spec
	default:
		sc, err = cliutil.ResolveScenario(req.Scenario)
		if err != nil {
			return Request{}, experiment.RunConfig{}, err
		}
		c.Scenario = sc.Name
	}
	polSpec := req.Policy
	if polSpec == "" {
		polSpec = sc.DefaultPolicy
	}
	c.Policy, err = cliutil.ResolvePolicy(polSpec)
	if err != nil {
		return Request{}, experiment.RunConfig{}, err
	}
	if req.Delta < 0 {
		return Request{}, experiment.RunConfig{}, fmt.Errorf("negative threshold delta %g", req.Delta)
	}
	c.Delta = req.Delta
	if c.Delta == 0 {
		c.Delta = sc.DefaultDelta
	}
	pkg, err := parsePackage(req.Package)
	if err != nil {
		return Request{}, experiment.RunConfig{}, err
	}
	c.Package = pkg.String()
	// Phase defaulting is experiment.Run's own cascade, so the cache
	// identity always matches what executes.
	c.WarmupS, c.MeasureS = experiment.Phases(sc, req.WarmupS, req.MeasureS)
	c.QueueCap = req.QueueCap
	if c.QueueCap <= 0 {
		c.QueueCap = stream.DefaultQueueCap
	}
	mech, err := ParseMechanism(req.Mechanism)
	if err != nil {
		return Request{}, experiment.RunConfig{}, err
	}
	c.Mechanism = mech.String()
	thermalCfg, err := cliutil.ParseIntegrator(req.Integrator)
	if err != nil {
		return Request{}, experiment.RunConfig{}, err
	}
	c.Integrator = thermalCfg.Scheme.String()

	rc := experiment.RunConfig{
		Scenario:   c.Scenario,
		Spec:       c.Spec,
		PolicyName: c.Policy,
		Delta:      c.Delta,
		Package:    pkg,
		WarmupS:    c.WarmupS,
		MeasureS:   c.MeasureS,
		QueueCap:   c.QueueCap,
		Mechanism:  mech,
		Thermal:    thermalCfg,
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
		scenarioID = "spec:" + c.Spec.Hash()
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
// requests with distinct spellings would hash apart.
func (c Request) Key() string {
	sum := sha256.Sum256([]byte(c.keyString()))
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
	// QueueCap overrides the queue capacity when positive (<= 0: 11).
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
			sc, err := cliutil.ResolveScenario(strings.TrimSpace(name))
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
			canon, err := cliutil.ResolvePolicy(strings.TrimSpace(name))
			if err != nil {
				return MatrixRequest{}, err
			}
			if !seen[canon] {
				seen[canon] = true
				c.Policies = append(c.Policies, canon)
			}
		}
	}
	if req.Delta < 0 {
		return MatrixRequest{}, fmt.Errorf("negative threshold delta %g", req.Delta)
	}
	c.Delta = req.Delta
	pkg, err := parsePackage(req.Package)
	if err != nil {
		return MatrixRequest{}, err
	}
	c.Package = pkg.String()
	mech, err := ParseMechanism(req.Mechanism)
	if err != nil {
		return MatrixRequest{}, err
	}
	c.Mechanism = mech.String()
	thermalCfg, err := cliutil.ParseIntegrator(req.Integrator)
	if err != nil {
		return MatrixRequest{}, err
	}
	c.Integrator = thermalCfg.Scheme.String()
	c.WarmupS = max(req.WarmupS, 0)
	c.MeasureS = max(req.MeasureS, 0)
	c.QueueCap = req.QueueCap
	if c.QueueCap <= 0 {
		c.QueueCap = stream.DefaultQueueCap
	}
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
func (c MatrixRequest) Key() string {
	sum := sha256.Sum256([]byte(c.keyString()))
	return hex.EncodeToString(sum[:])
}

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

// sweepCost is a sweep's estimated simulated seconds: every cell's
// warmup + measure phases, summed. The sync /matrix endpoint bounds it
// like /run bounds a single request, and admission reserves it.
func sweepCost(cells []Cell) float64 {
	var total float64
	for _, c := range cells {
		total += c.Request.WarmupS + c.Request.MeasureS
	}
	return total
}

// assembleMatrixDoc splices individually persisted per-cell run bodies
// into the whole-sweep document. Each cell body is the encoded RunDoc
// the cell's execution produced (or a store/cache hit of it); its raw
// result block is lifted verbatim.
func assembleMatrixDoc(canon MatrixRequest, cells []Cell, bodies [][]byte) (MatrixDoc, error) {
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
