package experiment

import (
	"fmt"
	"strings"

	"thermbal/internal/sim"
)

// MatrixCell is one (scenario, policy) outcome of a cross-product run:
// the display row of a scenarios × policies sweep.
type MatrixCell struct {
	Scenario string
	Policy   string // canonical policy name
	Result   sim.Result
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
