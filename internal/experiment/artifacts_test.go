package experiment

import (
	"context"
	"strings"
	"testing"
)

// narrativeGolden is the Section 5 narrative as cmd/figures printed it
// before the narrative moved into this package.
const narrativeGolden = `Section 5 narrative checks
  warm-up gradient after 12.5 s: 8.0 °C between core1 (60.2) and core3 (52.2)
  after balancing: mean gradient 3.32 °C, 0 misses, over-threshold time 0.28 s
  migration overhead: 11 migrations x 64 KB = 704 KB over 10 s (70.4 KB/s)
  queue capacity  5 frames -> 4 deadline misses
  queue capacity  8 frames -> 2 deadline misses
  queue capacity 11 frames -> 0 deadline misses
`

func TestNarrativeGolden(t *testing.T) {
	for _, workers := range []int{1, 3} {
		got, err := narrative(context.Background(), Options{Runner: Runner{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		if got != narrativeGolden {
			t.Errorf("workers=%d narrative:\n%s\ngolden:\n%s", workers, got, narrativeGolden)
		}
	}
}

// TestWriteArtifactsSelection: names select a subset that renders in
// table order, separated by one blank line, with no trailing one.
func TestWriteArtifactsSelection(t *testing.T) {
	ctx := context.Background()
	render := func(names ...string) string {
		t.Helper()
		var b strings.Builder
		if err := WriteArtifacts(ctx, &b, Options{}, names, []float64{3}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	t2, err := FormatTable2()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render("table2", "table1"), FormatTable1()+"\n"+t2; got != want {
		t.Errorf("table2,table1:\n%s\nwant:\n%s", got, want)
	}
	mob, err := Sweep(ctx, Options{}, Mobile, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render("fig8"), FormatMissFigure("Figure 8", Mobile, mob, []float64{3}); got != want {
		t.Errorf("fig8:\n%s\nwant:\n%s", got, want)
	}
}
