package experiment

import (
	"context"
	"fmt"
	"strings"

	"thermbal/internal/migrate"
)

// Ablation studies for the design choices of the balancing policy
// (DESIGN.md): the master-daemon period that rate-limits migrations,
// the TopK task-subset bound of the paper's Section 3.1 approximation,
// the MiGra freeze-cost filter, the migration mechanism, and the
// inter-task queue sizing. Each runs its configurations on opt's worker
// pool and returns rows in input order, plus a formatter.

// AblationRow is one configuration outcome.
type AblationRow struct {
	Label          string
	PooledStdDev   float64
	DeadlineMisses int64
	Migrations     int
	PerSec         float64
	MeanFreezeMs   float64
}

func ablRow(label string, rc RunConfig) (AblationRow, error) {
	res, _, err := Run(rc)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Label:          label,
		PooledStdDev:   res.PooledStdDev,
		DeadlineMisses: res.DeadlineMisses,
		Migrations:     res.Migrations,
		PerSec:         res.MigrationsPerSec,
		MeanFreezeMs:   res.MeanFreezeS * 1e3,
	}, nil
}

// ablSpec is one labelled configuration of an ablation study.
type ablSpec struct {
	label string
	rc    RunConfig
}

// ablRows runs every spec across opt's worker pool, preserving order.
func ablRows(ctx context.Context, opt Options, specs []ablSpec) ([]AblationRow, error) {
	return collect(ctx, opt.Runner, specs, func(_ context.Context, s ablSpec) (AblationRow, error) {
		s.rc.Thermal = opt.Thermal
		return ablRow(s.label, s.rc)
	})
}

// FormatAblation renders rows as a titled table.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	b.WriteString("  config                 std[°C]  misses  migr   mig/s  freeze[ms]\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %7.3f  %6d  %4d  %6.2f  %9.1f\n",
			r.Label, r.PooledStdDev, r.DeadlineMisses, r.Migrations, r.PerSec, r.MeanFreezeMs)
	}
	return b.String()
}

// AblateDaemonPeriod varies the master-daemon evaluation period (the
// migration rate limiter) at the operating threshold. Shorter periods
// chase the temperature faster but multiply migrations.
func AblateDaemonPeriod(ctx context.Context, opt Options, periods []float64) ([]AblationRow, error) {
	if len(periods) == 0 {
		periods = []float64{0.05, 0.1, 0.3, 1.0, 3.0}
	}
	specs := make([]ablSpec, 0, len(periods))
	for _, p := range periods {
		specs = append(specs, ablSpec{fmt.Sprintf("period=%.2fs", p), RunConfig{
			PolicyName: thermalBalance, Delta: 3, Package: Mobile, MinInterval: p,
		}})
	}
	return ablRows(ctx, opt, specs)
}

// AblateTopK varies the number of highest-load tasks the selection
// phase considers (the paper's Section 3.1 approximation: "limit the
// number of tasks to be considered only to the few tasks having the
// highest load").
func AblateTopK(ctx context.Context, opt Options, ks []int) ([]AblationRow, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 3, 6}
	}
	specs := make([]ablSpec, 0, len(ks))
	for _, k := range ks {
		specs = append(specs, ablSpec{fmt.Sprintf("topK=%d", k), RunConfig{
			PolicyName: thermalBalance, Delta: 3, Package: Mobile, TopK: k,
		}})
	}
	return ablRows(ctx, opt, specs)
}

// AblateCostFilter varies the MiGra freeze-time budget. A very tight
// budget filters every migration (the policy degenerates to DVFS), a
// loose one admits everything.
func AblateCostFilter(ctx context.Context, opt Options, budgets []float64) ([]AblationRow, error) {
	if len(budgets) == 0 {
		budgets = []float64{0.05, 0.15, 0.25, 1.0}
	}
	specs := make([]ablSpec, 0, len(budgets))
	for _, bud := range budgets {
		specs = append(specs, ablSpec{fmt.Sprintf("maxFreeze=%.0fms", bud*1e3), RunConfig{
			PolicyName: thermalBalance, Delta: 3, Package: Mobile, MaxFreezeS: bud,
		}})
	}
	return ablRows(ctx, opt, specs)
}

// AblateMechanism compares task-replication against task-recreation at
// the operating point (paper Section 3.2: replication trades memory for
// speed).
func AblateMechanism(ctx context.Context, opt Options) ([]AblationRow, error) {
	var specs []ablSpec
	for _, m := range []migrate.Mechanism{migrate.Replication, migrate.Recreation} {
		specs = append(specs, ablSpec{m.String(), RunConfig{
			PolicyName: thermalBalance, Delta: 3, Package: Mobile, Mechanism: m,
		}})
	}
	return ablRows(ctx, opt, specs)
}

// AblateQueueCap reproduces the queue-sizing observation (Section 5.2:
// "the minimum queue size to sustain migration in our experiments was
// 11 frames").
func AblateQueueCap(ctx context.Context, opt Options, caps []int) ([]AblationRow, error) {
	if len(caps) == 0 {
		caps = []int{3, 5, 8, 11, 16}
	}
	specs := make([]ablSpec, 0, len(caps))
	for _, c := range caps {
		specs = append(specs, ablSpec{fmt.Sprintf("queue=%d frames", c), RunConfig{
			PolicyName: thermalBalance, Delta: 3, Package: Mobile, QueueCap: c,
		}})
	}
	return ablRows(ctx, opt, specs)
}

// AllAblations runs every ablation, each study's configurations across
// opt's worker pool, and renders them in fixed order.
func AllAblations(ctx context.Context, opt Options) (string, error) {
	var b strings.Builder
	type study struct {
		title string
		run   func() ([]AblationRow, error)
	}
	studies := []study{
		{"Ablation A1: master-daemon period (thermal-balance, ±3 °C, mobile)",
			func() ([]AblationRow, error) { return AblateDaemonPeriod(ctx, opt, nil) }},
		{"Ablation A2: task-subset bound TopK",
			func() ([]AblationRow, error) { return AblateTopK(ctx, opt, nil) }},
		{"Ablation A3: MiGra freeze-cost budget",
			func() ([]AblationRow, error) { return AblateCostFilter(ctx, opt, nil) }},
		{"Ablation A4: migration mechanism",
			func() ([]AblationRow, error) { return AblateMechanism(ctx, opt) }},
		{"Ablation A5: queue capacity (paper: 11-frame minimum)",
			func() ([]AblationRow, error) { return AblateQueueCap(ctx, opt, nil) }},
	}
	for i, st := range studies {
		rows, err := st.run()
		if err != nil {
			return "", err
		}
		b.WriteString(FormatAblation(st.title, rows))
		if i < len(studies)-1 {
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}
