package experiment

import (
	"context"
	"fmt"
	"strings"

	"thermbal/internal/scenario"
)

// Scalability study: the paper's framework "can be scaled to any number
// of cores sub-systems" (Section 4). This experiment runs generated
// streaming workloads on platforms of growing size under the balancing
// policy, confirming the policy keeps working as the pairing space
// grows.

// ScaleRow is one platform-size outcome.
type ScaleRow struct {
	Cores          int
	Tasks          int
	PooledStdDev   float64
	BaselineStdDev float64 // energy-balance reference on the same workload
	DeadlineMisses int64
	Migrations     int
}

// Scale runs the study for the given core counts (default 2, 4, 8):
// per platform size, a seeded split/join workload compiled from its
// spec and run under the energy-balance baseline and the balancing
// policy on opt's worker pool.
func Scale(ctx context.Context, opt Options, coreCounts []int, seed int64) ([]ScaleRow, error) {
	if len(coreCounts) == 0 {
		coreCounts = []int{2, 4, 8}
	}
	specs := make([]scenario.Spec, len(coreCounts))
	cfgs := make([]RunConfig, 0, 2*len(coreCounts))
	for i, n := range coreCounts {
		// Budget ~0.45 FSE per core so the greedy mapping is feasible
		// at mid-ladder frequencies, leaving thermal contrast.
		specs[i] = scenario.SplitJoin(seed, n+2, 3, 0.45*float64(n), n)
		cfgs = append(cfgs,
			RunConfig{PolicyName: energyBalance, Spec: &specs[i], MeasureS: 20, Thermal: opt.Thermal},
			RunConfig{PolicyName: thermalBalance, Delta: 2, Spec: &specs[i], MeasureS: 20, Thermal: opt.Thermal})
	}
	results, err := RunAll(ctx, opt.Runner, cfgs)
	if err != nil {
		return nil, fmt.Errorf("experiment: scale: %w", err)
	}
	rows := make([]ScaleRow, len(coreCounts))
	for i, n := range coreCounts {
		base, bal := results[2*i], results[2*i+1]
		rows[i] = ScaleRow{
			Cores:          n,
			Tasks:          len(specs[i].Graph.Tasks),
			PooledStdDev:   bal.PooledStdDev,
			BaselineStdDev: base.PooledStdDev,
			DeadlineMisses: bal.DeadlineMisses,
			Migrations:     bal.Migrations,
		}
	}
	return rows, nil
}

// FormatScale renders the study.
func FormatScale(rows []ScaleRow) string {
	var b strings.Builder
	b.WriteString("Scalability: generated workloads under thermal balancing (±2 °C, 20 s)\n")
	b.WriteString("  cores  tasks   std[°C]  baseline-std  misses  migrations\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %5d  %5d   %7.3f  %12.3f  %6d  %10d\n",
			r.Cores, r.Tasks, r.PooledStdDev, r.BaselineStdDev, r.DeadlineMisses, r.Migrations)
	}
	return b.String()
}
