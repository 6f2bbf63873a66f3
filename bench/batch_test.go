package bench

import (
	"math"
	"strings"
	"testing"

	"thermbal/internal/experiment"
	"thermbal/internal/service"
	"thermbal/internal/sim"
)

// TestNonFiniteSummaryFails feeds a synthetic NaN result through the
// path every output takes before it is compared.
func TestNonFiniteSummaryFails(t *testing.T) {
	res := sim.Result{PolicyName: "thermal-balance", MeasuredS: 1, MaxTemp: math.NaN()}
	if err := checkFinite(experiment.Summarize(res)); err == nil || !strings.Contains(err.Error(), "MaxC") {
		t.Fatalf("checkFinite(NaN max temperature) = %v, want an error naming MaxC", err)
	}
	res.MaxTemp = 80
	res.BytesPerSec = math.Inf(1)
	canon, _, err := service.Canonicalize(service.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := encodeRun(canon, res); err == nil {
		t.Fatal("encodeRun accepted an infinite summary")
	}
	res.BytesPerSec = 0
	if _, err := encodeRun(canon, res); err != nil {
		t.Fatalf("encodeRun(finite) = %v", err)
	}
}

func TestBatchCasesAreDistinct(t *testing.T) {
	for w, n := range map[string]int{"paper-sweep": 24, "manycore": 4} {
		cases, err := batchCases(w)
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for _, c := range cases {
			keys[c.canon.Key()] = true
		}
		if len(cases) != n || len(keys) != n {
			t.Errorf("%s: %d cases, %d distinct keys; want %d", w, len(cases), len(keys), n)
		}
	}
}
