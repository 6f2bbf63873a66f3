package sim

import (
	"errors"
	"fmt"
	"strings"
	"text/tabwriter"
)

// Profile counts where an engine's simulated ticks and work went: how
// the clock was partitioned into plain ticks and macro-steps, what the
// horizon scans cost, and how plain ticks stepped each core. Every
// count is deterministic: the same configuration, stepped through the
// same Run calls, reports the same profile on any host.
type Profile struct {
	// PlainTicks counts ticks executed one at a time by stepTick.
	PlainTicks int64
	// MacroSteps counts fast-path jumps; MacroTicks the ticks they cover.
	MacroSteps int64
	MacroTicks int64
	// Scans counts horizon computations; ZeroScans those that found an
	// event on the very next tick.
	Scans     int64
	ZeroScans int64
	// Rescans counts per-core run-queue rescans across all scans (a full
	// scan would rescan every core every time).
	Rescans int64
	// QuietCores counts plain-tick core steps that needed no scheduler:
	// the clean cores a plain tick does not visit, whose allocation for
	// the tick is owed and applied at their next catch-up. FullCores
	// counts those that went through the scheduler.
	QuietCores int64
	FullCores  int64
	// FrameBegins and FrameFinishes count frame boundaries.
	FrameBegins   int64
	FrameFinishes int64
}

// String renders the profile as an aligned two-column table.
func (p Profile) String() string {
	perScan := 0.0
	if p.Scans > 0 {
		perScan = float64(p.Rescans) / float64(p.Scans)
	}
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "plain ticks\t%d\n", p.PlainTicks)
	fmt.Fprintf(tw, "macro-steps\t%d (%d ticks)\n", p.MacroSteps, p.MacroTicks)
	fmt.Fprintf(tw, "horizon scans\t%d (%d zero)\n", p.Scans, p.ZeroScans)
	fmt.Fprintf(tw, "core rescans\t%d (%.2f per scan)\n", p.Rescans, perScan)
	fmt.Fprintf(tw, "plain core steps\t%d quiet, %d full\n", p.QuietCores, p.FullCores)
	fmt.Fprintf(tw, "frame boundaries\t%d begins, %d finishes\n", p.FrameBegins, p.FrameFinishes)
	tw.Flush()
	return b.String()
}

// MaxDieTempC is the physical ceiling on a die temperature: the melting
// point of silicon. A run whose model crosses it has left physics (a
// package that cannot remove the dissipated power diverges without
// bound), so the engine stops it with a RunawayError.
const MaxDieTempC = 1414

// ErrThermalRunaway is the sentinel every RunawayError matches under
// errors.Is.
var ErrThermalRunaway = errors.New("sim: thermal runaway")

// RunawayError reports the first die temperature found non-finite or
// above MaxDieTempC at a sensor update.
type RunawayError struct {
	Core  int     // 0-based core index
	TimeS float64 // simulated time of the sensor update
	TempC float64 // the offending temperature (may be NaN or ±Inf)
}

func (e *RunawayError) Error() string {
	return fmt.Sprintf("sim: thermal runaway: core %d reached %.4g °C at t=%.2f s (ceiling %d °C, the melting point of silicon)",
		e.Core+1, e.TempC, e.TimeS, MaxDieTempC)
}

// Is makes errors.Is(err, ErrThermalRunaway) hold.
func (e *RunawayError) Is(target error) bool { return target == ErrThermalRunaway }
