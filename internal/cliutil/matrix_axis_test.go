package cliutil_test

import (
	"testing"

	"thermbal/internal/cliutil"
	"thermbal/internal/service"
)

// The -policy flag value of a matrix run is split by MatrixAxis and
// resolved by the service's canonicalizer, which imports this package;
// this test therefore lives in the external test package.

// TestResolvePolicies checks a -policy flag value end to end: "all"
// expands to every registered policy, and a list resolves aliases,
// collapses duplicates and keeps input order.
func TestResolvePolicies(t *testing.T) {
	resolve := func(spec string) []string {
		t.Helper()
		canon, err := service.CanonicalizeMatrix(service.MatrixRequest{
			Scenarios: []string{"sdr-radio"},
			Policies:  cliutil.MatrixAxis(spec),
		})
		if err != nil {
			t.Fatalf("policies %q: %v", spec, err)
		}
		return canon.Policies
	}
	if all := resolve("all"); len(all) < 3 {
		t.Fatalf("'all' expanded to %v, want >= 3 policies", all)
	}
	list := resolve("tb, eb, thermal-balance")
	if len(list) != 2 || list[0] != "thermal-balance" || list[1] != "energy-balance" {
		t.Errorf("policy dedup/order wrong: %v", list)
	}
}
