package scenario

import (
	"os"
	"os/exec"
	"reflect"
	"sync"
	"testing"
)

// freshEnv marks a test binary re-executed by inFreshProcess.
const freshEnv = "SCENARIO_FRESH_CATALOGUE"

// inFreshProcess reports whether the test runs in a re-executed test
// binary, whose catalogue no earlier test has resolved. In the original
// process it re-executes the binary for this test alone (under -race
// when the original runs under it) and fails with the child's output if
// the child fails.
func inFreshProcess(t *testing.T) bool {
	t.Helper()
	if os.Getenv(freshEnv) == "1" {
		return true
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), freshEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("re-executed %s: %v\n%s", t.Name(), err, out)
	}
	return false
}

// TestFirstUseResolution checks that the catalogue resolves a builtin
// only when it is used: Names reads the table alone, Lookup resolves
// its own entry, and Infos resolves every entry once.
func TestFirstUseResolution(t *testing.T) {
	if !inFreshProcess(t) {
		return
	}
	if got := resolvedEntries.Load(); got != 0 {
		t.Fatalf("%d entries resolved before any call, want 0", got)
	}
	if len(Names()) != len(catalogue) {
		t.Fatalf("Names lists %d builtins, want %d", len(Names()), len(catalogue))
	}
	for range 2 {
		if _, err := Lookup(DefaultName); err != nil {
			t.Fatal(err)
		}
	}
	if got := resolvedEntries.Load(); got != 1 {
		t.Fatalf("%d entries resolved after Lookup(%q), want 1", got, DefaultName)
	}
	Infos()
	All()
	if got := resolvedEntries.Load(); got != int32(len(catalogue)) {
		t.Fatalf("%d entries resolved after Infos, want %d", got, len(catalogue))
	}
}

// TestConcurrentFirstUse races goroutines through the first Lookup of
// every builtin, each name asked for by several goroutines at once, and
// requires every answer to equal the resolved catalogue: same Scenario,
// same hash. Under -race it also checks the resolution for data races.
func TestConcurrentFirstUse(t *testing.T) {
	if !inFreshProcess(t) {
		return
	}
	const perName = 4
	names := Names()
	got := make([][perName]Scenario, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		for j := range perName {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := Lookup(name)
				if err != nil {
					t.Error(err)
				}
				got[i][j] = s
			}()
		}
	}
	wg.Wait()
	for i, want := range All() {
		wantHash, err := want.Hash()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range got[i] {
			if h, _ := s.Hash(); h != wantHash || !reflect.DeepEqual(s, want) {
				t.Errorf("%s: a concurrent Lookup got hash %s, want %s", want.Name, h, wantHash)
			}
		}
	}
	if n := resolvedEntries.Load(); n != int32(len(catalogue)) {
		t.Errorf("%d resolutions for %d builtins, want one each", n, len(catalogue))
	}
}
