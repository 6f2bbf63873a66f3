package experiment

import (
	"context"
	"strings"
	"testing"
)

func TestAblateQueueCapReproducesMinimum(t *testing.T) {
	rows, err := AblateQueueCap(context.Background(), Options{}, []int{5, 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	small, full := rows[0], rows[1]
	if small.DeadlineMisses <= full.DeadlineMisses {
		t.Errorf("5-frame queue misses %d <= 11-frame %d", small.DeadlineMisses, full.DeadlineMisses)
	}
	if full.DeadlineMisses != 0 {
		t.Errorf("11-frame queue missed %d deadlines at the operating point", full.DeadlineMisses)
	}
}

func TestAblateMechanismShape(t *testing.T) {
	rows, err := AblateMechanism(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	repl, recr := rows[0], rows[1]
	if recr.MeanFreezeMs <= repl.MeanFreezeMs {
		t.Errorf("recreation freeze %.1f ms <= replication %.1f ms", recr.MeanFreezeMs, repl.MeanFreezeMs)
	}
}

func TestAblateDaemonPeriodMonotoneRate(t *testing.T) {
	rows, err := AblateDaemonPeriod(context.Background(), Options{}, []float64{0.1, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].PerSec < rows[1].PerSec {
		t.Errorf("shorter daemon period gives lower rate: %.2f vs %.2f", rows[0].PerSec, rows[1].PerSec)
	}
}

func TestAblateCostFilterTightBudgetBlocksMigrations(t *testing.T) {
	rows, err := AblateCostFilter(context.Background(), Options{}, []float64{0.01, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tight, loose := rows[0], rows[1]
	if tight.Migrations != 0 {
		t.Errorf("tight budget admitted %d migrations", tight.Migrations)
	}
	if loose.Migrations == 0 {
		t.Error("loose budget blocked everything")
	}
	// Without migrations the policy degenerates to DVFS: deviation must
	// be worse than with balancing.
	if tight.PooledStdDev <= loose.PooledStdDev {
		t.Errorf("no-migration std %.3f <= balanced %.3f", tight.PooledStdDev, loose.PooledStdDev)
	}
}

func TestAblateTopKRuns(t *testing.T) {
	rows, err := AblateTopK(context.Background(), Options{}, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Migrations == 0 {
			t.Errorf("%s: no migrations", r.Label)
		}
	}
}

func TestFormatAblation(t *testing.T) {
	out := FormatAblation("Title", []AblationRow{{Label: "x", PooledStdDev: 1.5}})
	if !strings.Contains(out, "Title") || !strings.Contains(out, "1.500") {
		t.Errorf("format:\n%s", out)
	}
}

func TestScaleStudy(t *testing.T) {
	rows, err := Scale(context.Background(), Options{}, []int{2, 4}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Tasks == 0 {
			t.Errorf("n=%d: no tasks", r.Cores)
		}
		// Balancing must not be worse than the static baseline.
		if r.PooledStdDev > r.BaselineStdDev+0.2 {
			t.Errorf("n=%d: balanced std %.3f above baseline %.3f", r.Cores, r.PooledStdDev, r.BaselineStdDev)
		}
	}
	if !strings.Contains(FormatScale(rows), "Scalability") {
		t.Error("FormatScale broken")
	}
}
