package scenario

import (
	"reflect"
	"testing"
)

// TestBuiltinNameForSpec checks the spec-hash index both ways: every
// builtin's exported spec resolves to its own name, and a perturbed
// spec does not resolve at all.
func TestBuiltinNameForSpec(t *testing.T) {
	for _, s := range All() {
		name, ok := BuiltinNameForSpec(s.Spec)
		if !ok || name != s.Name {
			t.Errorf("%s: BuiltinNameForSpec = %q, %v", s.Name, name, ok)
		}
		// Labels are not part of the identity: renaming still matches.
		renamed := s.Spec
		renamed.Name = "something-else"
		if name, ok := BuiltinNameForSpec(renamed); !ok || name != s.Name {
			t.Errorf("%s: renamed spec did not match: %q, %v", s.Name, name, ok)
		}
	}
	sc, _ := Lookup(DefaultName)
	perturbed := sc.Spec
	perturbed.Graph.Tasks = append([]TaskSpec(nil), perturbed.Graph.Tasks...)
	perturbed.Graph.Tasks[0].FSE *= 1.5
	if name, ok := BuiltinNameForSpec(perturbed); ok {
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
	if a.Hash() != b.Hash() {
		t.Fatal("equal generated specs hash apart")
	}
	c := Generate(43)
	if a.Hash() == c.Hash() {
		t.Fatal("different seeds produced identical specs")
	}
	inst, err := Compile(a, Options{})
	if err != nil {
		t.Fatalf("generated spec does not compile: %v", err)
	}
	if inst.Graph.NumTasks() == 0 {
		t.Fatal("generated graph is empty")
	}
	sc, err := FromSpec(a)
	if err != nil {
		t.Fatal(err)
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
	inst, err := Compile(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Platform.NumCores() != 3 {
		t.Fatalf("hetero platform has %d cores", inst.Platform.NumCores())
	}
	// The scaled tile must differ thermally from the homogeneous die —
	// identical hashes would mean the tiles were ignored.
	if h, ok := BuiltinNameForSpec(sp); ok {
		t.Fatalf("hetero spec unexpectedly matched builtin %q", h)
	}
}
