package experiment

import (
	"context"
	"fmt"
	"strings"

	"thermbal/internal/migrate"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
)

// The cross-product harness: scenarios × policies on the parallel
// Runner, so one command produces a head-to-head table across the whole
// matrix instead of one paper workload at a time.

// MatrixConfig selects the axes of a cross-product run.
type MatrixConfig struct {
	// Scenarios lists registered scenario names (empty = all).
	Scenarios []string
	// Policies lists registered policy names or aliases (empty = all).
	Policies []string
	// Delta is the threshold for threshold-driven policies; zero uses
	// each scenario's default.
	Delta float64
	// Package selects the thermal package for every cell.
	Package PackageSel
	// WarmupS / MeasureS override the scenario defaults when positive.
	WarmupS  float64
	MeasureS float64
	// QueueCap overrides the queue capacity when positive.
	QueueCap int
	// Mechanism selects the migration implementation for every cell
	// (default task-replication).
	Mechanism migrate.Mechanism
}

// MatrixCell is one (scenario, policy) outcome.
type MatrixCell struct {
	Scenario string
	Policy   string // canonical policy name
	Result   sim.Result
}

// Matrix runs every (scenario, policy) pair across opt's worker pool
// and returns the cells scenario-major in input order. Unknown names
// fail before any simulation starts.
func Matrix(ctx context.Context, opt Options, mc MatrixConfig) ([]MatrixCell, error) {
	scNames := mc.Scenarios
	if len(scNames) == 0 {
		scNames = scenario.Names()
	}
	polNames := mc.Policies
	if len(polNames) == 0 {
		polNames = policy.Names()
	}
	type cellCfg struct {
		sc  scenario.Scenario
		pol string
	}
	cells := make([]cellCfg, 0, len(scNames)*len(polNames))
	for _, sn := range scNames {
		sc, err := scenario.Lookup(sn)
		if err != nil {
			return nil, err
		}
		for _, pn := range polNames {
			canon, ok := policy.Canonical(pn)
			if !ok {
				return nil, fmt.Errorf("experiment: unknown policy %q (registered: %v)", pn, policy.Names())
			}
			cells = append(cells, cellCfg{sc: sc, pol: canon})
		}
	}
	cfgs := make([]RunConfig, len(cells))
	for i, c := range cells {
		delta := mc.Delta
		if delta <= 0 {
			delta = c.sc.DefaultDelta
		}
		cfgs[i] = RunConfig{
			Scenario:   c.sc.Name,
			PolicyName: c.pol,
			Delta:      delta,
			Package:    mc.Package,
			WarmupS:    mc.WarmupS,
			MeasureS:   mc.MeasureS,
			QueueCap:   mc.QueueCap,
			Mechanism:  mc.Mechanism,
			Thermal:    opt.Thermal,
		}
	}
	results, err := RunAll(ctx, opt.Runner, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]MatrixCell, len(cells))
	for i, c := range cells {
		out[i] = MatrixCell{Scenario: c.sc.Name, Policy: c.pol, Result: results[i]}
	}
	return out, nil
}

// FormatMatrix renders the head-to-head table, grouped by scenario.
func FormatMatrix(cells []MatrixCell) string {
	var b strings.Builder
	b.WriteString("Scenario x policy matrix\n")
	b.WriteString("  scenario         policy           std[°C]  spatial  misses  rate%    migr  energy[J]\n")
	last := ""
	for _, c := range cells {
		label := ""
		if c.Scenario != last {
			label = c.Scenario
			last = c.Scenario
		}
		r := c.Result
		fmt.Fprintf(&b, "  %-16s %-16s %7.3f  %7.3f  %6d  %5.2f  %6d  %9.3f\n",
			label, c.Policy, r.PooledStdDev, r.SpatialStdDev,
			r.DeadlineMisses, r.MissRatePct, r.Migrations, r.TotalEnergyJ)
	}
	return b.String()
}
