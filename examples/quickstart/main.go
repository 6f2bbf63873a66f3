// Quickstart: run the paper's headline experiment through the public
// facade — the SDR benchmark on the 3-core MPSoC, thermal balancing at
// the ±3 °C operating threshold — and compare it with the
// energy-balanced baseline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"thermbal"
)

func main() {
	log.SetFlags(0)

	baseline, err := thermbal.Run(thermbal.Config{
		Policy:   "energy-balance",
		Package:  "mobile-embedded",
		MeasureS: 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	balanced, err := thermbal.Run(thermbal.Config{
		Policy:   "thermal-balance",
		Delta:    3, // the paper's operating threshold
		Package:  "mobile-embedded",
		MeasureS: 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Software-Defined Radio on the 3-core streaming MPSoC (20 s window)")
	fmt.Println()
	fmt.Printf("%-22s %14s %14s\n", "", "energy-balance", "thermal-balance")
	fmt.Printf("%-22s %14.3f %14.3f\n", "temp std dev [°C]", baseline.PooledStdDev, balanced.PooledStdDev)
	fmt.Printf("%-22s %14.2f %14.2f\n", "mean gradient [°C]", baseline.MeanGradient, balanced.MeanGradient)
	fmt.Printf("%-22s %14.2f %14.2f\n", "max temperature [°C]", baseline.MaxTemp, balanced.MaxTemp)
	fmt.Printf("%-22s %14d %14d\n", "deadline misses", baseline.DeadlineMisses, balanced.DeadlineMisses)
	fmt.Printf("%-22s %14d %14d\n", "migrations", baseline.Migrations, balanced.Migrations)
	fmt.Printf("%-22s %14.1f %14.1f\n", "migrated KB/s", baseline.BytesPerSec/1024, balanced.BytesPerSec/1024)
	fmt.Println()
	fmt.Printf("Thermal balancing cut the temperature deviation by %.0f%% with zero QoS cost.\n",
		100*(1-balanced.PooledStdDev/baseline.PooledStdDev))
}
