package policy

import (
	"slices"
	"strings"
	"testing"
)

func TestRegistryBaselines(t *testing.T) {
	for name, want := range map[string]string{
		"none":           "none",
		"energy-balance": "energy-balance",
		"eb":             "energy-balance",
		"stop-go":        "stop&go",
		"stopgo":         "stop&go",
		"stop&go":        "stop&go",
		"sg":             "stop&go",
	} {
		p, err := New(name, Args{Delta: 3})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Errorf("New(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	_, err := New("no-such-policy", Args{})
	if err == nil {
		t.Fatal("New(no-such-policy) succeeded")
	}
	if !strings.Contains(err.Error(), "energy-balance") {
		t.Errorf("error %q does not list registered policies", err)
	}
}

func TestRegistryStopGoValidation(t *testing.T) {
	if _, err := New("stop-go", Args{}); err == nil {
		t.Fatal("stop-go with zero delta succeeded")
	}
}

func TestRegistryFreshInstances(t *testing.T) {
	a, err := New("stop-go", Args{Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("stop-go", Args{Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.(*StopGo) == b.(*StopGo) {
		t.Fatal("factory returned a shared StopGo instance")
	}
}

// TestTableInvariants checks what name resolution relies on: names and
// aliases are unique across the whole table, the table is sorted by
// name, and each alias list is sorted, so Entries needs no sorting.
func TestTableInvariants(t *testing.T) {
	owner := map[string]string{}
	for i, e := range table {
		if i > 0 && table[i-1].Name >= e.Name {
			t.Errorf("table not sorted: %q before %q", table[i-1].Name, e.Name)
		}
		if !slices.IsSorted(e.Aliases) {
			t.Errorf("%s: aliases %v not sorted", e.Name, e.Aliases)
		}
		for _, n := range append([]string{e.Name}, e.Aliases...) {
			if prev, dup := owner[n]; dup {
				t.Errorf("spelling %q names both %s and %s", n, prev, e.Name)
			}
			owner[n] = e.Name
		}
	}
}

func TestThermalBalanceRegistered(t *testing.T) {
	for _, name := range []string{"thermal-balance", "tb", "migra"} {
		p, err := New(name, Args{Delta: 3, TopK: 2})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		b, ok := p.(*Balancer)
		if !ok {
			t.Fatalf("New(%q) returned %T, want *Balancer", name, p)
		}
		if b.p.Delta != 3 || b.p.TopK != 2 {
			t.Errorf("params not threaded: %+v", b.p)
		}
	}
	if _, err := New("thermal-balance", Args{}); err == nil {
		t.Fatal("thermal-balance with zero delta succeeded")
	}
}

func TestCanonical(t *testing.T) {
	if c, ok := Canonical("eb"); !ok || c != "energy-balance" {
		t.Fatalf("Canonical(eb) = %q, %v", c, ok)
	}
	if _, ok := Canonical("bogus"); ok {
		t.Fatal("Canonical(bogus) resolved")
	}
}
