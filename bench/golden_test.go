package bench

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"thermbal/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite golden.json from the current engine")

// TestGolden recomputes every batch config's document digest and
// compares it with golden.json; -update rewrites the file instead.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every batch config once")
	}
	got := map[string]map[string]string{}
	for _, w := range []string{"paper-sweep", "manycore"} {
		cases, err := batchCases(w)
		if err != nil {
			t.Fatal(err)
		}
		got[w] = map[string]string{}
		for _, c := range cases {
			res, _, err := experiment.Run(c.rc)
			if err != nil {
				t.Fatal(err)
			}
			body, err := encodeRun(c.canon, res)
			if err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			got[w][c.label] = digest(body)
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := golden()
	if err != nil {
		t.Fatal(err)
	}
	for w, m := range got {
		if len(want[w]) != len(m) {
			t.Errorf("%s: golden.json has %d configs, workload has %d", w, len(want[w]), len(m))
		}
		for label, d := range m {
			if want[w][label] != d {
				t.Errorf("%s %s: digest %s, golden %s", w, label, d, want[w][label])
			}
		}
	}
}
