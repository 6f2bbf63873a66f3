package experiment

import (
	"context"
	"testing"
)

// The paper-artifact renderings at their default sizes, pinned
// verbatim. They were captured from the builders the spec emitters
// replaced, so any drift in the SDR mapping or in the scale study's
// generated workloads shows up here as a text diff.
const (
	table2Golden = `Table 2: Application mapping
  Core / freq.        Task    Load [%]
  Core 1 (533 MHz)    BPF1     36.7
                      DEMOD    28.3
  Core 2 (266 MHz)    BPF2     60.9
                      SUM       6.2
  Core 3 (266 MHz)    BPF3     60.9
                      LPF      18.8
`
	scaleGolden = `Scalability: generated workloads under thermal balancing (±2 °C, 20 s)
  cores  tasks   std[°C]  baseline-std  misses  migrations
      2      6     0.846         0.846       0           0
      4     11     1.722         1.722       0           0
      8     21     6.176         6.176       0           0
`
)

func TestFormatTable2Golden(t *testing.T) {
	got, err := FormatTable2()
	if err != nil {
		t.Fatal(err)
	}
	if got != table2Golden {
		t.Errorf("FormatTable2:\n%s\ngolden:\n%s", got, table2Golden)
	}
}

func TestFormatScaleGolden(t *testing.T) {
	rows, err := Scale(context.Background(), Options{}, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatScale(rows); got != scaleGolden {
		t.Errorf("FormatScale:\n%s\ngolden:\n%s", got, scaleGolden)
	}
}
