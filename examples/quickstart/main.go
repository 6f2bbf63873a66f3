// Quickstart: run the paper's headline experiment through the public
// facade — the SDR benchmark on the 3-core MPSoC, thermal balancing at
// the ±3 °C operating threshold — and compare it with the
// energy-balanced baseline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"thermbal"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run compares the two policies on the SDR benchmark and prints the
// table to w.
func run(w io.Writer) error {
	baseline, err := thermbal.Run(thermbal.Config{
		Policy:   "energy-balance",
		Package:  "mobile-embedded",
		MeasureS: 20,
	})
	if err != nil {
		return err
	}

	balanced, err := thermbal.Run(thermbal.Config{
		Policy:   "thermal-balance",
		Delta:    3, // the paper's operating threshold
		Package:  "mobile-embedded",
		MeasureS: 20,
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Software-Defined Radio on the 3-core streaming MPSoC (20 s window)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-22s %14s %14s\n", "", "energy-balance", "thermal-balance")
	fmt.Fprintf(w, "%-22s %14.3f %14.3f\n", "temp std dev [°C]", baseline.PooledStdDev, balanced.PooledStdDev)
	fmt.Fprintf(w, "%-22s %14.2f %14.2f\n", "mean gradient [°C]", baseline.MeanGradient, balanced.MeanGradient)
	fmt.Fprintf(w, "%-22s %14.2f %14.2f\n", "max temperature [°C]", baseline.MaxTemp, balanced.MaxTemp)
	fmt.Fprintf(w, "%-22s %14d %14d\n", "deadline misses", baseline.DeadlineMisses, balanced.DeadlineMisses)
	fmt.Fprintf(w, "%-22s %14d %14d\n", "migrations", baseline.Migrations, balanced.Migrations)
	fmt.Fprintf(w, "%-22s %14.1f %14.1f\n", "migrated KB/s", baseline.BytesPerSec/1024, balanced.BytesPerSec/1024)
	fmt.Fprintln(w)
	_, err = fmt.Fprintf(w, "Thermal balancing cut the temperature deviation by %.0f%% with zero QoS cost.\n",
		100*(1-balanced.PooledStdDev/baseline.PooledStdDev))
	return err
}
