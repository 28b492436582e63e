package greenmatch_test

import (
	"fmt"
	"log"

	greenmatch "repro"
	"repro/scenarios"
)

// Example runs a small renewable-powered storage data center under the
// GreenMatch policy and prints whether every job met its deadline.
func Example() {
	// The reference run, shrunk to a tenth of its week on a 6-node
	// cluster with 20 m^2 of PV and no battery.
	sc, err := scenarios.Load("reference")
	if err != nil {
		log.Fatal(err)
	}
	sc.Nodes, sc.Objects, sc.WorkloadScale = 6, 300, 0.1
	sc.AreaM2, sc.BatteryKWh, sc.ReadsPerSlot = 20, 0, 20
	cfg, err := sc.Compile()
	if err != nil {
		log.Fatal(err)
	}
	cfg.Policy = greenmatch.GreenMatch{}

	res, err := greenmatch.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d/%d jobs, %d deadline misses\n",
		res.SLA.Completed, res.SLA.Submitted, res.SLA.DeadlineMisses)
	// Output: completed 426/426 jobs, 0 deadline misses
}

// ExampleBatterySpecFor shows the published chemistry characteristics the
// ESD model is parameterized with.
func ExampleBatterySpecFor() {
	li, err := greenmatch.BatterySpecFor(greenmatch.LithiumIon)
	if err != nil {
		log.Fatal(err)
	}
	capWh := greenmatch.Energy(90_000) // the literature's 90 kWh example
	fmt.Printf("efficiency %.2f, volume %.0f L, price $%.0f\n",
		li.Efficiency, li.VolumeLiters(capWh), li.PriceDollars(capWh))
	// Output: efficiency 0.85, volume 600 L, price $47250
}

// ExampleExperiments lists the first entries of the evaluation registry the
// benchmark harness drives.
func ExampleExperiments() {
	for _, e := range greenmatch.Experiments()[:3] {
		fmt.Printf("%s (%s)\n", e.ID, e.Kind)
	}
	// Output:
	// E1 (figure)
	// E2 (figure)
	// E3 (figure)
}
