package cliutil

import (
	"strings"
	"testing"
)

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
	for _, c := range []struct{ in, wantErr string }{
		{"2,x", `bad delta "x"`},
		{"nan", "threshold delta NaN is not positive"},
		{"NaN", "threshold delta NaN is not positive"},
		{"inf", "threshold delta +Inf is not positive"},
		{"-Inf", "threshold delta -Inf is not positive"},
		{"0", "threshold delta 0 is not positive"},
		{"-0", "threshold delta -0 is not positive"},
		{"3,-1", "threshold delta -1 is not positive"},
		{"2,0,4", "threshold delta 0 is not positive"},
	} {
		if ds, err := ParseDeltas(c.in); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseDeltas(%q) = %v, %v; want an error containing %q", c.in, ds, err, c.wantErr)
		}
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
