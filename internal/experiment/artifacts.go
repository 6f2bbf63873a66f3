package experiment

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
)

// artifact is one entry of the artifact table: its name and how it
// renders.
type artifact struct {
	name   string
	render func(context.Context, *artifactRun) (string, error)
}

// artifactRun is the state one WriteArtifacts call shares between its
// artifacts: Figures 7-11 draw on one sweep per package, run at most
// once.
type artifactRun struct {
	opt    Options
	deltas []float64
	sweeps map[PackageSel][]SweepPoint
}

func (r *artifactRun) sweep(ctx context.Context, pkg PackageSel) ([]SweepPoint, error) {
	if pts, ok := r.sweeps[pkg]; ok {
		return pts, nil
	}
	pts, err := Sweep(ctx, r.opt, pkg, r.deltas)
	if err != nil {
		return nil, err
	}
	r.sweeps[pkg] = pts
	return pts, nil
}

// sweepFigure renders one package's sweep with format (Figures 7-10).
func sweepFigure(fig string, pkg PackageSel, format func(string, PackageSel, []SweepPoint, []float64) string) func(context.Context, *artifactRun) (string, error) {
	return func(ctx context.Context, r *artifactRun) (string, error) {
		pts, err := r.sweep(ctx, pkg)
		if err != nil {
			return "", err
		}
		return format(fig, pkg, pts, r.deltas), nil
	}
}

// artifacts is the one table of what the evaluation renders, in output
// order.
var artifacts = []artifact{
	{"table1", func(context.Context, *artifactRun) (string, error) { return FormatTable1(), nil }},
	{"table2", func(ctx context.Context, r *artifactRun) (string, error) {
		rows, err := Table2(ctx, r.opt)
		if err != nil {
			return "", err
		}
		return FormatTable2Rows(rows), nil
	}},
	{"fig2", func(ctx context.Context, r *artifactRun) (string, error) {
		rows, err := Fig2(ctx, r.opt, nil)
		if err != nil {
			return "", err
		}
		return FormatFig2(rows), nil
	}},
	{"fig7", sweepFigure("Figure 7", Mobile, FormatStdDevFigure)},
	{"fig8", sweepFigure("Figure 8", Mobile, FormatMissFigure)},
	{"fig9", sweepFigure("Figure 9", HighPerf, FormatStdDevFigure)},
	{"fig10", sweepFigure("Figure 10", HighPerf, FormatMissFigure)},
	{"fig11", func(ctx context.Context, r *artifactRun) (string, error) {
		mob, err := r.sweep(ctx, Mobile)
		if err != nil {
			return "", err
		}
		hp, err := r.sweep(ctx, HighPerf)
		if err != nil {
			return "", err
		}
		return FormatFig11(Fig11(mob, hp, r.deltas)), nil
	}},
	{"narrative", func(ctx context.Context, r *artifactRun) (string, error) { return narrative(ctx, r.opt) }},
	{"ablations", func(ctx context.Context, r *artifactRun) (string, error) { return AllAblations(ctx, r.opt) }},
	{"scale", func(ctx context.Context, r *artifactRun) (string, error) {
		rows, err := Scale(ctx, r.opt, nil, 11)
		if err != nil {
			return "", err
		}
		return FormatScale(rows), nil
	}},
}

// Artifacts names every artifact WriteArtifacts renders, in output
// order: first the paper's own tables and figures (PaperArtifacts),
// then the Section 5 narrative checks, the ablations and the many-core
// scale study.
var Artifacts = func() []string {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.name
	}
	return names
}()

// PaperArtifacts is the leading part of Artifacts the paper itself
// prints: Tables 1-2 and Figures 2 and 7-11.
var PaperArtifacts = Artifacts[:8:8]

// WriteArtifacts renders the named artifacts (all of them when names
// is empty) to w in Artifacts order, separated by blank lines. deltas
// is the threshold axis of Figures 7-11 (nil: Deltas). An unknown name
// is an error that lists the known ones, reported before any run.
func WriteArtifacts(ctx context.Context, w io.Writer, opt Options, names []string, deltas []float64) error {
	for _, n := range names {
		if !slices.Contains(Artifacts, n) {
			return fmt.Errorf("unknown artifact %q (known artifacts: %s)", n, strings.Join(Artifacts, ", "))
		}
	}
	r := &artifactRun{opt: opt, deltas: deltas, sweeps: map[PackageSel][]SweepPoint{}}
	sep := ""
	for _, a := range artifacts {
		if len(names) > 0 && !slices.Contains(names, a.name) {
			continue
		}
		out, err := a.render(ctx, r)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, sep+out); err != nil {
			return err
		}
		sep = "\n"
	}
	return nil
}

// narrative reproduces the Section 5 prose claims: the 12.5 s warm-up
// gradient, balance within about a second, bounded overshoot, the
// 64 KB-per-migration overhead arithmetic and the 11-frame queue
// minimum. Like the other paper-specific artifacts it runs the paper's
// own workload and ignores opt's scenario and integrator.
func narrative(ctx context.Context, opt Options) (string, error) {
	var b strings.Builder
	b.WriteString("Section 5 narrative checks\n")

	// Warm-up gradient.
	_, eng, err := Run(RunConfig{PolicyName: energyBalance, Package: Mobile, MeasureS: 0.1})
	if err != nil {
		return "", err
	}
	t1 := eng.Platform().CoreTemp(0)
	t3 := eng.Platform().CoreTemp(2)
	fmt.Fprintf(&b, "  warm-up gradient after 12.5 s: %.1f °C between core1 (%.1f) and core3 (%.1f)\n",
		t1-t3, t1, t3)

	// Balancing transient with the operating threshold.
	tb, _, err := Run(RunConfig{PolicyName: thermalBalance, Delta: 3, Package: Mobile, MeasureS: 10})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  after balancing: mean gradient %.2f °C, %d misses, over-threshold time %.2f s\n",
		tb.MeanGradient, tb.DeadlineMisses, tb.OverThresholdS)
	fmt.Fprintf(&b, "  migration overhead: %d migrations x 64 KB = %.0f KB over %.0f s (%.1f KB/s)\n",
		tb.Migrations, tb.MigratedBytes/1024, tb.MeasuredS, tb.BytesPerSec/1024)

	// Queue sizing: the paper's 11-frame minimum.
	caps := []int{5, 8, 11}
	cfgs := make([]RunConfig, len(caps))
	for i, c := range caps {
		cfgs[i] = RunConfig{PolicyName: thermalBalance, Delta: 3, Package: Mobile, MeasureS: 15, QueueCap: c}
	}
	results, err := RunAll(ctx, opt.Runner, cfgs)
	if err != nil {
		return "", err
	}
	for i, c := range caps {
		fmt.Fprintf(&b, "  queue capacity %2d frames -> %d deadline misses\n", c, results[i].DeadlineMisses)
	}
	return b.String(), nil
}
