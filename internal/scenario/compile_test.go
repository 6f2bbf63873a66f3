package scenario

import (
	"reflect"
	"testing"

	"thermbal/internal/thermal"
)

// mustFromSpec resolves sp through FromSpec, failing the test on an
// invalid spec.
func mustFromSpec(t testing.TB, sp Spec) Scenario {
	t.Helper()
	sc, err := FromSpec(sp)
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	return sc
}

// specHash is the content hash FromSpec gives sp.
func specHash(t testing.TB, sp Spec) string {
	t.Helper()
	h, err := mustFromSpec(t, sp).Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestBuiltinNameForSpec checks the spec-hash match both ways: every
// builtin's exported spec resolves to its own name, and a perturbed
// spec does not resolve at all.
func TestBuiltinNameForSpec(t *testing.T) {
	for _, s := range All() {
		name, ok := BuiltinNameForSpec(mustFromSpec(t, s.Spec))
		if !ok || name != s.Name {
			t.Errorf("%s: BuiltinNameForSpec = %q, %v", s.Name, name, ok)
		}
		// Labels are not part of the identity: renaming still matches.
		renamed := s.Spec
		renamed.Name = "something-else"
		if name, ok := BuiltinNameForSpec(mustFromSpec(t, renamed)); !ok || name != s.Name {
			t.Errorf("%s: renamed spec did not match: %q, %v", s.Name, name, ok)
		}
	}
	sc, _ := Lookup(DefaultName)
	perturbed := sc.Spec
	perturbed.Graph.Tasks = append([]TaskSpec(nil), perturbed.Graph.Tasks...)
	perturbed.Graph.Tasks[0].FSE *= 1.5
	if name, ok := BuiltinNameForSpec(mustFromSpec(t, perturbed)); ok {
		t.Errorf("perturbed spec matched %q", name)
	}
}

// TestGenerateDeterministicAndCompilable: same seed, same spec, same
// hash; different seeds differ; the result compiles and simulates.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(42), Generate(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate(42) is not deterministic")
	}
	if specHash(t, a) != specHash(t, b) {
		t.Fatal("equal generated specs hash apart")
	}
	c := Generate(43)
	if specHash(t, a) == specHash(t, c) {
		t.Fatal("different seeds produced identical specs")
	}
	sc := mustFromSpec(t, a)
	inst, err := sc.Instantiate(Options{})
	if err != nil {
		t.Fatalf("generated spec does not compile: %v", err)
	}
	if inst.Graph.NumTasks() == 0 {
		t.Fatal("generated graph is empty")
	}
	if sc.Name != "gen-42" {
		t.Fatalf("generated scenario name %q", sc.Name)
	}
}

// TestCompileHeteroTiles compiles a spec with asymmetric core tiles and
// checks the die came out heterogeneous.
func TestCompileHeteroTiles(t *testing.T) {
	sc, _ := Lookup(DefaultName)
	sp := sc.Spec
	sp.Platform = PlatformSpec{
		Cores: 3,
		Tiles: []TileSpec{{Count: 1, Scale: 1.5}, {Count: 2, Scale: 1}},
	}
	hetero := mustFromSpec(t, sp)
	inst, err := hetero.Instantiate(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Platform.NumCores() != 3 {
		t.Fatalf("hetero platform has %d cores", inst.Platform.NumCores())
	}
	// The scaled tile must differ thermally from the homogeneous die —
	// identical hashes would mean the tiles were ignored.
	if h, ok := BuiltinNameForSpec(hetero); ok {
		t.Fatalf("hetero spec unexpectedly matched builtin %q", h)
	}
}

// A spec's ambient override applies under the default package as well
// as an explicit one: the die starts at the overridden ambient.
func TestCompileAmbientOverride(t *testing.T) {
	sc, _ := Lookup(DefaultName)
	sp := sc.Spec
	ambient := 40.0
	sp.Platform.AmbientC = &ambient
	warm := mustFromSpec(t, sp)
	for _, o := range []Options{{}, {Package: thermal.HighPerformance()}} {
		inst, err := warm.Instantiate(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := inst.Platform.CoreTemp(0); got != ambient {
			t.Errorf("package %q: core starts at %g °C, want %g", o.Package.Name, got, ambient)
		}
	}
}

// BenchmarkInstantiateManycore256 compiles manycore-256 from its
// resolved spec: the compile every run of it pays before the engine
// starts.
func BenchmarkInstantiateManycore256(b *testing.B) {
	sc, err := Lookup("manycore-256")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sc.Instantiate(Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
