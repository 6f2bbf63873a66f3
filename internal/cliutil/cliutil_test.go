package cliutil

import (
	"sort"
	"strings"
	"testing"

	"thermbal/internal/experiment"
)

// TestResolvePolicyAllCLISpellings covers every policy spelling the
// three CLIs historically accepted, now resolved through the registry.
func TestResolvePolicyAllCLISpellings(t *testing.T) {
	for spelling, want := range map[string]string{
		"energy-balance":  "energy-balance",
		"eb":              "energy-balance",
		"stop-go":         "stop-go",
		"stopgo":          "stop-go",
		"stop&go":         "stop-go",
		"sg":              "stop-go",
		"thermal-balance": "thermal-balance",
		"tb":              "thermal-balance",
		"migra":           "thermal-balance",
		"none":            "none",
	} {
		got, err := ResolvePolicy(spelling)
		if err != nil {
			t.Fatalf("ResolvePolicy(%q): %v", spelling, err)
		}
		if got != want {
			t.Errorf("ResolvePolicy(%q) = %q, want %q", spelling, got, want)
		}
	}
	if _, err := ResolvePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestResolveScenario(t *testing.T) {
	sc, err := ResolveScenario("")
	if err != nil || sc.Name != "sdr-radio" {
		t.Fatalf("empty scenario resolved to %q, err %v; want sdr-radio", sc.Name, err)
	}
	if _, err := ResolveScenario("pipeline-d8"); err != nil {
		t.Errorf("pipeline-d8: %v", err)
	}
	if _, err := ResolveScenario("bogus"); err == nil {
		t.Fatal("bogus scenario accepted")
	}
}

func TestParsePackage(t *testing.T) {
	for spelling, want := range map[string]experiment.PackageSel{
		"mobile":           experiment.Mobile,
		"embedded":         experiment.Mobile,
		"highperf":         experiment.HighPerf,
		"high-performance": experiment.HighPerf,
		"hp":               experiment.HighPerf,
	} {
		got, err := ParsePackage(spelling)
		if err != nil || got != want {
			t.Errorf("ParsePackage(%q) = %v, %v; want %v", spelling, got, err, want)
		}
	}
	if _, err := ParsePackage("bogus"); err == nil {
		t.Fatal("bogus package accepted")
	}
}

func TestParseDeltas(t *testing.T) {
	ds, err := ParseDeltas("2, 3.5,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 || ds[0] != 2 || ds[1] != 3.5 || ds[2] != 4 {
		t.Errorf("ParseDeltas = %v", ds)
	}
	if ds, err := ParseDeltas(""); err != nil || ds != nil {
		t.Errorf("ParseDeltas(\"\") = %v, %v", ds, err)
	}
	if _, err := ParseDeltas("2,x"); err == nil {
		t.Fatal("bad delta accepted")
	}
}

func TestListText(t *testing.T) {
	out := ListText()
	for _, want := range []string{
		"sdr-radio", "video-decoder", "pipeline-d8", "fanout-w4",
		"bursty-sdr", "manycore-32", "thermal-balance", "stop-go", "energy-balance",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ListText missing %q", want)
		}
	}
}

// TestSuggest covers the did-you-mean helper directly.
func TestSuggest(t *testing.T) {
	known := []string{"sdr-radio", "video-decoder", "pipeline-d8", "pipeline-d16"}
	for name, want := range map[string]string{
		"sdr-raido":    "sdr-radio",   // transposition
		"pipeline-d9":  "pipeline-d8", // substitution
		"video-decode": "video-decoder",
		"zzzz":         "", // nothing plausible
	} {
		if got := Suggest(name, known); got != want {
			t.Errorf("Suggest(%q) = %q, want %q", name, got, want)
		}
	}
	// Ties resolve to the lexicographically first candidate.
	if got := Suggest("pipeline-d", []string{"pipeline-dz", "pipeline-da"}); got != "pipeline-da" {
		t.Errorf("tie broke to %q, want pipeline-da", got)
	}
}

// TestUnknownNameErrors checks the full error shape: a did-you-mean
// suggestion when plausible, always the sorted known-name list.
func TestUnknownNameErrors(t *testing.T) {
	_, err := ResolveScenario("sdr-raido")
	if err == nil || !strings.Contains(err.Error(), `did you mean "sdr-radio"?`) {
		t.Errorf("scenario typo error = %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "known scenarios:") {
		t.Errorf("scenario error missing catalogue: %v", err)
	}
	// The catalogue must be sorted.
	if err != nil {
		listing := err.Error()[strings.Index(err.Error(), "known scenarios:"):]
		names := strings.Split(strings.TrimSuffix(strings.TrimPrefix(listing, "known scenarios: "), ")"), ", ")
		if !sort.StringsAreSorted(names) {
			t.Errorf("catalogue not sorted: %v", names)
		}
	}

	// Alias typos suggest the canonical name.
	_, err = ResolvePolicy("migr")
	if err == nil || !strings.Contains(err.Error(), `did you mean "thermal-balance"?`) {
		t.Errorf("policy alias typo error = %v", err)
	}
	_, err = ResolvePolicy("qqqq")
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Errorf("far-off policy still suggested: %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "known policies:") {
		t.Errorf("policy error missing list: %v", err)
	}
}
