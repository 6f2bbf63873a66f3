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
	ablationsGolden = `Ablation A1: master-daemon period (thermal-balance, ±3 °C, mobile)
  config                 std[°C]  misses  migr   mig/s  freeze[ms]
  period=0.05s             2.007       3    32    1.07      118.3
  period=0.10s             2.007       3    32    1.07      118.3
  period=0.30s             2.006       0    31    1.03      118.3
  period=1.00s             2.030       0    24    0.80      118.3
  period=3.00s             2.181       0    10    0.33      118.3

Ablation A2: task-subset bound TopK
  config                 std[°C]  misses  migr   mig/s  freeze[ms]
  topK=1                   2.031       0    65    2.17      118.3
  topK=2                   1.812       0     2    0.07      118.3
  topK=3                   2.006       0    31    1.03      118.3
  topK=6                   2.006       0    31    1.03      118.3

Ablation A3: MiGra freeze-cost budget
  config                 std[°C]  misses  migr   mig/s  freeze[ms]
  maxFreeze=50ms           3.503       0     0    0.00        0.0
  maxFreeze=150ms          2.006       0    31    1.03      118.3
  maxFreeze=250ms          2.006       0    31    1.03      118.3
  maxFreeze=1000ms         2.006       0    31    1.03      118.3

Ablation A4: migration mechanism
  config                 std[°C]  misses  migr   mig/s  freeze[ms]
  task-replication         2.006       0    31    1.03      118.3
  task-recreation          2.093     300    68    2.27      222.6

Ablation A5: queue capacity (paper: 11-frame minimum)
  config                 std[°C]  misses  migr   mig/s  freeze[ms]
  queue=3 frames           2.032       7     4    0.13      118.3
  queue=5 frames           2.013       4    29    0.97      118.3
  queue=8 frames           2.006       2    31    1.03      118.3
  queue=11 frames          2.006       0    31    1.03      118.3
  queue=16 frames          2.006       0    31    1.03      118.3
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

func TestAllAblationsGolden(t *testing.T) {
	got, err := AllAblations(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != ablationsGolden {
		t.Errorf("AllAblations:\n%s\ngolden:\n%s", got, ablationsGolden)
	}
}
