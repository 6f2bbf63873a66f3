// thermal_model uses the RC thermal substrate directly: it builds a
// custom 4-core floorplan, solves the steady state for an unbalanced
// power map, then watches the transient after the hot spot moves —
// the experiment an architect would run before trusting any policy
// results. It also demonstrates the two package presets.
//
//	go run ./examples/thermal_model
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"thermbal/internal/floorplan"
	"thermbal/internal/thermal"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run solves the steady state, steps the transient and compares the
// packages, printing each to w.
func run(w io.Writer) error {
	// A 4-core variant of the streaming MPSoC floorplan.
	fp := floorplan.StreamingMPSoC(4)
	fmt.Fprintf(w, "floorplan: %d blocks, %d adjacencies, die %.1f x %.1f mm\n",
		len(fp.Blocks), len(fp.Adjacencies), dieMM(fp, true), dieMM(fp, false))

	model, err := thermal.NewModel(fp, thermal.MobileEmbedded())
	if err != nil {
		return err
	}

	// Unbalanced power: core 1 hot, the rest nearly idle.
	power := make([]float64, len(fp.Blocks))
	setCorePower(fp, power, 0, 0.40)
	for c := 1; c < 4; c++ {
		setCorePower(fp, power, c, 0.06)
	}

	if err := model.Settle(power); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nsteady state with core1 hot:")
	printCores(w, model, 4)

	// Move the hot spot to core 4 and watch the transient.
	setCorePower(fp, power, 0, 0.06)
	setCorePower(fp, power, 3, 0.40)
	fmt.Fprintln(w, "\ntransient after moving the load to core4 (mobile package):")
	var elapsed float64
	for _, dt := range []float64{0.1, 0.5, 1, 2, 4, 8} {
		if err := model.Step(dt, power); err != nil {
			return err
		}
		elapsed += dt
		fmt.Fprintf(w, "  t+%4.1fs:", elapsed)
		for c := 0; c < 4; c++ {
			fmt.Fprintf(w, "  core%d %6.2f", c+1, model.CoreTemp(c))
		}
		fmt.Fprintln(w)
	}

	// The high-performance package reaches the same steady state 6x
	// faster.
	hp, err := thermal.NewModel(fp, thermal.HighPerformance())
	if err != nil {
		return err
	}
	if err := hp.Step(2.0, power); err != nil { // 2 s ≈ 12 s of mobile time
		return err
	}
	fmt.Fprintln(w, "\nhigh-performance package after only 2 s from ambient:")
	printCores(w, hp, 4)
	_, err = fmt.Fprintf(w, "\nspeed ratio between packages: %.1fx\n",
		thermal.HighPerformance().SpeedupVs(thermal.MobileEmbedded()))
	return err
}

func setCorePower(fp *floorplan.Floorplan, p []float64, coreID int, watts float64) {
	for _, bi := range fp.BlocksOfCore(coreID) {
		switch fp.Blocks[bi].Kind {
		case floorplan.KindCore:
			p[bi] = watts
		case floorplan.KindICache:
			p[bi] = watts * 0.02
		case floorplan.KindDCache:
			p[bi] = watts * 0.07
		}
	}
}

func printCores(w io.Writer, m *thermal.Model, n int) {
	for c := 0; c < n; c++ {
		fmt.Fprintf(w, "  core%d: %6.2f °C\n", c+1, m.CoreTemp(c))
	}
}

func dieMM(fp *floorplan.Floorplan, width bool) float64 {
	_, _, w, h := fp.DieExtent()
	if width {
		return w * 1e3
	}
	return h * 1e3
}
