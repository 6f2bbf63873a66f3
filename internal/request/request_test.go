package request_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"thermbal/internal/cliutil"
	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	. "thermbal/internal/request"
	"thermbal/internal/scenario"
	"thermbal/internal/stream"
)

// goldenKey is the content address of the paper's default operating
// point (sdr-radio, thermal-balance, delta 3, mobile package, 12.5 s +
// 30 s, queue 11, task-replication, Euler), computed once and frozen:
// the key derivation must stay stable across processes, platforms and
// future commits, or cached results would silently lose their
// identity. Bump only together with the keyString version tag.
const goldenKey = "481807daf47fffe75ee68176dfd76e2dd379ace340977bf79393c46d8e3e8fb9"

func mustCanon(t *testing.T, req Request) Request {
	t.Helper()
	canon, _, err := Canonicalize(req)
	if err != nil {
		t.Fatalf("Canonicalize(%+v): %v", req, err)
	}
	return canon
}

func TestCanonicalizeFillsDefaults(t *testing.T) {
	canon := mustCanon(t, Request{})
	want := Request{
		Scenario: "sdr-radio", Policy: "thermal-balance", Delta: 3,
		Package: "mobile-embedded", WarmupS: 12.5, MeasureS: 30,
		QueueCap: 11, Mechanism: "task-replication", Integrator: "euler",
	}
	if canon != want {
		t.Errorf("canonical defaults = %+v, want %+v", canon, want)
	}
}

func TestKeyGoldenStableAcrossProcesses(t *testing.T) {
	if got := mustCanon(t, Request{}).Key(); got != goldenKey {
		t.Errorf("default request key = %s, want the frozen %s", got, goldenKey)
	}
}

func TestKeyAliasAndDefaultInsensitive(t *testing.T) {
	// Every spelling of the same run must share one cache line.
	variants := []Request{
		{}, // all defaults
		{Scenario: "sdr-radio"},
		{Policy: "thermal-balance"},
		{Policy: "tb"},
		{Policy: "migra"},
		{Package: "mobile"},
		{Package: "embedded"},
		{Package: "mobile-embedded"},
		{Mechanism: "replication"},
		{Mechanism: "task-replication"},
		{Integrator: "euler"},
		{Delta: 3, WarmupS: 12.5, MeasureS: 30, QueueCap: 11},
	}
	for _, v := range variants {
		if got := mustCanon(t, v).Key(); got != goldenKey {
			t.Errorf("Key(%+v) = %s, want %s", v, got, goldenKey)
		}
	}
}

func TestKeyFieldOrderInsensitive(t *testing.T) {
	bodies := []string{
		`{"scenario":"sdr-radio","policy":"tb","delta":3,"integrator":"euler"}`,
		`{"integrator":"euler","delta":3,"policy":"thermal-balance","scenario":"sdr-radio"}`,
		`{"delta":3}`,
	}
	for _, b := range bodies {
		var req Request
		if err := json.Unmarshal([]byte(b), &req); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got := mustCanon(t, req).Key(); got != goldenKey {
			t.Errorf("Key(%s) = %s, want %s", b, got, goldenKey)
		}
	}
}

func TestKeySeparatesDistinctRuns(t *testing.T) {
	base := mustCanon(t, Request{}).Key()
	distinct := []Request{
		{Delta: 4},
		{Policy: "stop-go"},
		{Package: "hp"},
		{Scenario: "video-decoder"},
		{MeasureS: 31},
		{QueueCap: 12},
		{Mechanism: "recreation"},
		{Integrator: "expm"},
	}
	seen := map[string]string{base: "default"}
	for _, req := range distinct {
		key := mustCanon(t, req).Key()
		if prev, dup := seen[key]; dup {
			t.Errorf("Key(%+v) collides with %s", req, prev)
		}
		seen[key] = "variant"
	}
}

// Every spelling of the exact scheme canonicalizes to "expm" and all
// share one content address, distinct from the Euler default's.
func TestKeyExpmAliasInsensitive(t *testing.T) {
	base := mustCanon(t, Request{Integrator: "expm"})
	if base.Integrator != "expm" {
		t.Fatalf("canonical integrator = %q, want expm", base.Integrator)
	}
	if base.Key() == goldenKey {
		t.Error("expm request collides with the Euler default key")
	}
	for _, alias := range []string{"exp", "exact"} {
		if got := mustCanon(t, Request{Integrator: alias}).Key(); got != base.Key() {
			t.Errorf("Key(integrator=%q) = %s, want the expm key %s", alias, got, base.Key())
		}
	}
}

func TestCanonicalizeRejectsUnknownWithSuggestion(t *testing.T) {
	_, _, err := Canonicalize(Request{Scenario: "sdr-raido"})
	if err == nil || !strings.Contains(err.Error(), `did you mean "sdr-radio"?`) {
		t.Errorf("unknown scenario error = %v, want a did-you-mean for sdr-radio", err)
	}
	_, _, err = Canonicalize(Request{Policy: "thermal-balanc"})
	if err == nil || !strings.Contains(err.Error(), `did you mean "thermal-balance"?`) {
		t.Errorf("unknown policy error = %v, want a did-you-mean for thermal-balance", err)
	}
	if _, _, err := Canonicalize(Request{Delta: -1}); err == nil {
		t.Error("negative delta accepted")
	}
	if _, _, err := Canonicalize(Request{Mechanism: "teleport"}); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

func TestCanonicalizeMatrix(t *testing.T) {
	canon, err := CanonicalizeMatrix(MatrixRequest{
		Scenarios: []string{"sdr-radio", "sdr-radio", "video-decoder"},
		Policies:  []string{"tb", "thermal-balance", "eb"},
	})
	if err != nil {
		t.Fatalf("CanonicalizeMatrix: %v", err)
	}
	if want := []string{"sdr-radio", "video-decoder"}; !equalStrings(canon.Scenarios, want) {
		t.Errorf("scenarios = %v, want %v", canon.Scenarios, want)
	}
	if want := []string{"thermal-balance", "energy-balance"}; !equalStrings(canon.Policies, want) {
		t.Errorf("policies = %v, want %v", canon.Policies, want)
	}
	// The cells are the scenario-major cross product of the canonical
	// axes, each keyed exactly like a direct /run of its configuration.
	cells, err := MatrixCells(canon)
	if err != nil {
		t.Fatalf("MatrixCells: %v", err)
	}
	if len(cells) != 4 {
		t.Fatalf("%d cells, want 2 x 2", len(cells))
	}
	for i, c := range cells {
		sn, pn := canon.Scenarios[i/2], canon.Policies[i%2]
		if c.Request.Scenario != sn || c.Request.Policy != pn || c.Config.Scenario != sn || c.Config.PolicyName != pn {
			t.Errorf("cell %d = %s/%s (run config %s/%s), want %s/%s",
				i, c.Request.Scenario, c.Request.Policy, c.Config.Scenario, c.Config.PolicyName, sn, pn)
		}
		direct, _, err := Canonicalize(Request{Scenario: sn, Policy: pn})
		if err != nil {
			t.Fatal(err)
		}
		if c.Request.Key() != direct.Key() {
			t.Errorf("cell %s/%s key differs from a direct /run's", sn, pn)
		}
	}

	// Alias spellings and axis defaults canonicalize to the same key.
	k1 := canon.Key()
	canon2, err := CanonicalizeMatrix(MatrixRequest{
		Scenarios:  []string{"sdr-radio", "video-decoder"},
		Policies:   []string{"migra", "energy-balance"},
		Package:    "mobile",
		Mechanism:  "replication",
		Integrator: "euler",
	})
	if err != nil {
		t.Fatalf("CanonicalizeMatrix: %v", err)
	}
	if k2 := canon2.Key(); k2 != k1 {
		t.Errorf("alias matrix key %s != %s", k2, k1)
	}
	// Empty axes select everything.
	all, err := CanonicalizeMatrix(MatrixRequest{})
	if err != nil {
		t.Fatalf("CanonicalizeMatrix(all): %v", err)
	}
	if len(all.Scenarios) < 2 || len(all.Policies) < 2 {
		t.Errorf("empty axes resolved to %v x %v", all.Scenarios, all.Policies)
	}
	if all.Key() == k1 {
		t.Error("full matrix key collides with the 2x2 slice")
	}
}

// TestCanonicalizeMatrixAxes resolves matrix axes spelled as the CLIs'
// -scenario/-policy flag values: "" and "all" select every registered
// name, lists resolve aliases, collapse duplicates and keep input
// order, and unknown names fail with a did-you-mean suggestion.
func TestCanonicalizeMatrixAxes(t *testing.T) {
	if len(scenario.Names()) < 6 || len(policy.Names()) < 3 {
		t.Fatalf("registries hold %v x %v, want >= 6 scenarios and >= 3 policies", scenario.Names(), policy.Names())
	}
	for _, c := range []struct {
		scenarios, policies         string
		wantScenarios, wantPolicies []string // nil: every registered name
		wantErr                     string
	}{
		{scenarios: "", policies: "all"},
		{scenarios: "all", policies: ""},
		{scenarios: "video-decoder, sdr-radio,video-decoder", policies: "tb, eb, thermal-balance",
			wantScenarios: []string{"video-decoder", "sdr-radio"}, wantPolicies: []string{"thermal-balance", "energy-balance"}},
		{scenarios: "sdr-radio", policies: "stop&go,sg,none",
			wantScenarios: []string{"sdr-radio"}, wantPolicies: []string{"stop-go", "none"}},
		{scenarios: "bogus", wantErr: `unknown scenario "bogus"`},
		{scenarios: "sdr-radio,video-decodr", wantErr: `did you mean "video-decoder"?`},
		{scenarios: "sdr-radio", policies: "bogus", wantErr: `unknown policy "bogus"`},
		{scenarios: "sdr-radio", policies: "eb,thermal-balanc", wantErr: `did you mean "thermal-balance"?`},
	} {
		canon, err := CanonicalizeMatrix(MatrixRequest{
			Scenarios: cliutil.MatrixAxis(c.scenarios),
			Policies:  cliutil.MatrixAxis(c.policies),
		})
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("axes %q x %q: error %v, want %q", c.scenarios, c.policies, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("axes %q x %q: %v", c.scenarios, c.policies, err)
			continue
		}
		if c.wantScenarios == nil {
			c.wantScenarios = scenario.Names()
		}
		if c.wantPolicies == nil {
			c.wantPolicies = policy.Names()
		}
		if !equalStrings(canon.Scenarios, c.wantScenarios) || !equalStrings(canon.Policies, c.wantPolicies) {
			t.Errorf("axes %q x %q resolved to %v x %v, want %v x %v", c.scenarios, c.policies,
				canon.Scenarios, canon.Policies, c.wantScenarios, c.wantPolicies)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInlineSpecLabelResolution pins how an inline spec's omitted
// labels (name, phases, default policy and delta) resolve. A builtin's
// spec with every label stripped is still that builtin: it takes the
// builtin's name and defaults (manycore-64: δ 2, 5 s + 10 s). The same
// spec with one load changed is a custom workload: it takes
// thermal-balance, δ 3 and the paper's 12.5 s + 30 s, and its spec
// stays unlabeled in the canonical request.
func TestInlineSpecLabelResolution(t *testing.T) {
	sc, err := scenario.Lookup("manycore-64")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cliutil.SpecJSON(sc)
	if err != nil {
		t.Fatal(err)
	}
	var bare scenario.Spec
	if err := json.Unmarshal(raw, &bare); err != nil {
		t.Fatal(err)
	}
	bare.Name, bare.WarmupS, bare.MeasureS, bare.DefaultPolicy, bare.DefaultDelta = "", 0, 0, "", 0

	named := mustCanon(t, Request{Spec: &bare})
	want := Request{
		Scenario: "manycore-64", Policy: "thermal-balance", Delta: 2,
		Package: "mobile-embedded", WarmupS: 5, MeasureS: 10,
		QueueCap: 11, Mechanism: "task-replication", Integrator: "euler",
	}
	if named != want {
		t.Errorf("stripped builtin spec canonicalizes to %+v, want %+v", named, want)
	}
	if got, pin := named.Key(), "907b61905013c4969ec55e7bdf9d7b203ea372179c0f71669a39ff1fb50f71a6"; got != pin {
		t.Errorf("stripped builtin spec key = %s, want %s", got, pin)
	}
	if byName := mustCanon(t, Request{Scenario: "manycore-64"}).Key(); named.Key() != byName {
		t.Errorf("stripped builtin spec key %s differs from the named request's %s", named.Key(), byName)
	}

	custom := bare
	custom.Graph.Tasks = append([]scenario.TaskSpec(nil), bare.Graph.Tasks...)
	custom.Graph.Tasks[0].FSE += 0.01
	canon := mustCanon(t, Request{Spec: &custom})
	if canon.Scenario != "" || canon.Spec == nil {
		t.Fatalf("perturbed spec resolved to scenario %q, want an inline spec", canon.Scenario)
	}
	if canon.Policy != "thermal-balance" || canon.Delta != 3 || canon.WarmupS != 12.5 || canon.MeasureS != 30 {
		t.Errorf("perturbed spec: policy %q, δ %g, %g s + %g s; want thermal-balance, δ 3, 12.5 s + 30 s",
			canon.Policy, canon.Delta, canon.WarmupS, canon.MeasureS)
	}
	if s := canon.Spec; s.Name != "" || s.DefaultPolicy != "" || s.DefaultDelta != 0 || s.WarmupS != 0 || s.MeasureS != 0 {
		t.Errorf("canonical spec gained labels: name %q, policy %q, δ %g, %g s + %g s",
			s.Name, s.DefaultPolicy, s.DefaultDelta, s.WarmupS, s.MeasureS)
	}
	if got, pin := canon.Key(), "26a7f9c02a9467eb1e449662824d27952557b9ca4660941339a4ee58572a00ab"; got != pin {
		t.Errorf("perturbed spec key = %s, want %s", got, pin)
	}
}

// inlineKeyGoldens pins the content keys of inline specs at the default
// queue capacity: Generate(1..8), then examples/scenarios/custom.json.
// They were computed before an inline spec was resolved once, and stay
// put: the key scheme, the canonical spec bytes and the queue-capacity
// default an inline spec resolves to did not move.
var inlineKeyGoldens = [9]string{
	"cc6e4fddf4c53ccc07615305632a5ecac0836ce94e86e427ffcdfee53905aa8e",
	"2ffc2746d80d15a93a00268c0bc38a9f18f3ac778b783c1e204e30ff6ab4fd70",
	"4dfddfd6ad49672f8b9254473a0cb167c625040a5e846cfdb42693a4e9717ddf",
	"60365b7975f120b81f08f7ed13c5362a89fa136b31072976b5e643e244e5faa7",
	"ada9060f5c7f7da5cfe8c955762885012fccc22d975a221c833cf5db37c930d5",
	"03ce7bb65b02d06a80e72d21861b35fbc7064006f8029bdfd284d15a58db1e3c",
	"c382394bf9c8d57e1f8b6ca7f78fdf78b52a534252d860ac127387692bd636e1",
	"4f23fb01cfbe2aa9f157447c1a7cbd058abebabee4c029c7ed6acf420508d290",
	"c18a4bb35ba548fb46973b81c2c781ffc2e309e86a88d169e02ec82a6e3ceb9e",
}

func TestInlineSpecKeyGolden(t *testing.T) {
	specs := make([]scenario.Spec, 0, len(inlineKeyGoldens))
	for seed := int64(1); seed <= 8; seed++ {
		specs = append(specs, scenario.Generate(seed))
	}
	custom, err := cliutil.LoadSpec("../../examples/scenarios/custom.json")
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, custom.Spec)
	for i, sp := range specs {
		if got := mustCanon(t, Request{Spec: &sp}).Key(); got != inlineKeyGoldens[i] {
			t.Errorf("%s: key %s, golden %s", sp.Name, got, inlineKeyGoldens[i])
		}
	}
}

// TestBuiltinQueueCapIsMatrixDefault: a matrix request without a queue
// capacity keys and runs its cells at stream.DefaultQueueCap, while a
// direct /run takes the scenario's graph.queue_cap. The two agree, and
// a sweep cell shares its direct run's key, only while every builtin's
// graph default is that value.
func TestBuiltinQueueCapIsMatrixDefault(t *testing.T) {
	canon, err := CanonicalizeMatrix(MatrixRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if canon.QueueCap != stream.DefaultQueueCap {
		t.Errorf("matrix default queue_cap %d, want %d", canon.QueueCap, stream.DefaultQueueCap)
	}
	for _, sc := range scenario.All() {
		if sc.Graph.QueueCap != canon.QueueCap {
			t.Errorf("%s: graph.queue_cap %d, matrix default %d", sc.Name, sc.Graph.QueueCap, canon.QueueCap)
		}
		if q := mustCanon(t, Request{Scenario: sc.Name}).QueueCap; q != canon.QueueCap {
			t.Errorf("%s: direct run's queue_cap %d, matrix default %d", sc.Name, q, canon.QueueCap)
		}
	}
}

// runDoc canonicalizes req, runs it and returns the canonical request
// and the encoded run document.
func runDoc(t *testing.T, req Request) (Request, []byte) {
	t.Helper()
	canon, rc, err := Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := experiment.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	body, err := EncodeDoc(NewRunDoc(canon, res))
	if err != nil {
		t.Fatal(err)
	}
	return canon, body
}

// TestInlineSpecQueueCapReachesRun: an inline spec's graph.queue_cap is
// the run's capacity unless the request sets one. Before, a missing
// request value became 11 and the spec's default never ran; a request
// that says 11 explicitly still gets that run, under the same key and
// with the same bytes.
func TestInlineSpecQueueCapReachesRun(t *testing.T) {
	sc, err := scenario.Lookup("sdr-radio")
	if err != nil {
		t.Fatal(err)
	}
	sp := sc.Spec
	sp.Graph.QueueCap = 2
	req := Request{Spec: &sp, Policy: "tb", WarmupS: 0.5, MeasureS: 1}

	own, ownBody := runDoc(t, req)
	if own.QueueCap != 2 {
		t.Errorf("canonical queue_cap %d, want the spec's 2", own.QueueCap)
	}
	req.QueueCap = 11
	at11, body11 := runDoc(t, req)
	if at11.QueueCap != 11 {
		t.Errorf("canonical queue_cap %d, want the request's 11", at11.QueueCap)
	}
	if own.Key() == at11.Key() {
		t.Error("queue_cap 2 and 11 share a key")
	}
	var a, b struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(ownBody, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body11, &b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Result, b.Result) {
		t.Error("queue_cap 2 ran the same result as queue_cap 11")
	}
	if got, pin := at11.Key(), "6723607b3b86c2349ac8bf94353a38743b4655c2d5ecb9d1129169c78f7a27f6"; got != pin {
		t.Errorf("explicit queue_cap 11 key = %s, want %s", got, pin)
	}
	sum := sha256.Sum256(body11)
	if got, pin := hex.EncodeToString(sum[:]), "c2372984c4549e133a1333ecc4b1bd8fcb3bfed8d79587a6d330fe4af76a1e29"; got != pin {
		t.Errorf("explicit queue_cap 11 document digest = %s, want %s", got, pin)
	}
}

// An explicit sink prefill above the sink queue's effective capacity —
// its own cap, else the request's queue_cap, else the spec's default —
// could never be reached, so the sink would never play: Canonicalize
// refuses it. A prefill the capacity holds is accepted.
func TestCanonicalizeRefusesPrefillAboveCapacity(t *testing.T) {
	sc, err := scenario.Lookup("sdr-radio")
	if err != nil {
		t.Fatal(err)
	}
	sp := sc.Spec
	sp.Graph.Queues = append([]scenario.QueueSpec(nil), sp.Graph.Queues...)
	sink := slices.IndexFunc(sp.Graph.Queues, func(q scenario.QueueSpec) bool { return q.Name == sp.Graph.Sink.Queue })
	if sink < 0 {
		t.Fatal("sdr-radio's sink queue is not among its queues")
	}
	for _, tc := range []struct {
		prefill, sinkCap, queueCap int
		ok                         bool
	}{
		{prefill: 11, ok: true},                           // the spec default holds 11
		{prefill: 12},                                     // above the spec default
		{prefill: 12, queueCap: 12, ok: true},             // the request's queue_cap holds it
		{prefill: 4, queueCap: 3},                         // above the request's queue_cap
		{prefill: 15, sinkCap: 20, queueCap: 3, ok: true}, // the queue's own cap wins
		{prefill: 21, sinkCap: 20, queueCap: 40},          // ... also over a larger override
	} {
		sp.Graph.Sink.Prefill, sp.Graph.Queues[sink].Cap = tc.prefill, tc.sinkCap
		_, _, err := Canonicalize(Request{Spec: &sp, QueueCap: tc.queueCap})
		if tc.ok && err != nil {
			t.Errorf("%+v refused: %v", tc, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "graph.sink.prefill")) {
			t.Errorf("%+v: err %v, want a graph.sink.prefill error", tc, err)
		}
	}
}

// TestQueueCapBound: a request's queue capacity is bounded like a
// spec's graph.queue_cap, on a run and on a sweep.
func TestQueueCapBound(t *testing.T) {
	if c := mustCanon(t, Request{QueueCap: scenario.MaxQueueCap}); c.QueueCap != scenario.MaxQueueCap {
		t.Errorf("queue_cap at the bound canonicalizes to %d", c.QueueCap)
	}
	if _, err := CanonicalizeMatrix(MatrixRequest{QueueCap: scenario.MaxQueueCap}); err != nil {
		t.Errorf("matrix queue_cap at the bound: %v", err)
	}
	past := scenario.MaxQueueCap + 1
	if _, _, err := Canonicalize(Request{QueueCap: past}); err == nil || !strings.Contains(err.Error(), "queue capacity") {
		t.Errorf("queue_cap %d: err %v, want a queue capacity error", past, err)
	}
	if _, err := CanonicalizeMatrix(MatrixRequest{QueueCap: past}); err == nil {
		t.Errorf("matrix queue_cap %d accepted", past)
	}
}

// BenchmarkCanonicalizeInlineManycore256 resolves a manycore-256-sized
// inline spec that is no builtin and keys it: the per-request cost of
// an inline /run before anything executes.
func BenchmarkCanonicalizeInlineManycore256(b *testing.B) {
	sc, err := scenario.Lookup("manycore-256")
	if err != nil {
		b.Fatal(err)
	}
	sp := sc.Spec
	sp.Graph.Tasks = append([]scenario.TaskSpec(nil), sp.Graph.Tasks...)
	sp.Graph.Tasks[0].FSE *= 0.5
	req := Request{Spec: &sp}
	b.ReportAllocs()
	for b.Loop() {
		canon, _, err := Canonicalize(req)
		if err != nil {
			b.Fatal(err)
		}
		if canon.Spec == nil || len(canon.Key()) != 64 {
			b.Fatal("spec collapsed onto a builtin")
		}
	}
}
