// Battery sizing: sweep ESD capacity under sized solar panels and find the
// smallest battery at which each policy stops drawing brown energy in
// steady state — the live version of experiment E3, including the volume
// and price the chemistry implies at that size.
//
// Run with: go run ./examples/batterysizing
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	greenmatch "repro"
	"repro/scenarios"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	capacitiesKWh := []float64{0, 5, 10, 15, 20, 25, 30, 40}

	// The reference run at quarter scale, with its panels enlarged to
	// comfortably above break-even; only the battery and policy vary.
	sc, err := scenarios.Load("reference")
	if err != nil {
		return err
	}
	sc = sc.Scaled(0.25)
	sc.AreaM2 = 62.5
	sc.RecordSeries = true
	cfg, err := sc.Compile()
	if err != nil {
		return err
	}

	table := &greenmatch.Table{
		Title:   "Steady-state brown energy (kWh) vs battery size — sized panels (62.5 m2), 8 nodes",
		Headers: []string{"battery_kwh", "baseline", "greenmatch"},
	}
	zero := map[string]float64{"baseline": -1, "greenmatch": -1}

	for _, capKWh := range capacitiesKWh {
		row := []any{capKWh}
		for _, policy := range []greenmatch.Policy{greenmatch.Baseline{}, greenmatch.GreenMatch{}} {
			cfg.BatteryCapacityWh = greenmatch.Energy(capKWh * 1000)
			cfg.Policy = policy
			res, err := greenmatch.Run(cfg)
			if err != nil {
				return err
			}
			// Steady-state brown: skip the first day (the battery starts
			// empty, so the first pre-dawn hours are unavoidably brown).
			var steady float64
			for _, s := range res.Series.Samples {
				if s.Slot >= 24 {
					steady += s.BrownW / 1000
				}
			}
			row = append(row, steady)
			if zero[res.Policy] < 0 && steady < 1 {
				zero[res.Policy] = capKWh
			}
		}
		table.AddRow(row...)
	}
	if err := table.WriteText(w); err != nil {
		return err
	}

	li, err := greenmatch.BatterySpecFor(greenmatch.LithiumIon)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	for _, name := range []string{"baseline", "greenmatch"} {
		k := zero[name]
		if k < 0 {
			fmt.Fprintf(w, "%-11s never reaches zero brown in this sweep\n", name)
			continue
		}
		capWh := greenmatch.Energy(k * 1000)
		fmt.Fprintf(w, "%-11s reaches zero steady-state brown at %4.0f kWh  (LI: %.0f L, $%.0f)\n",
			name, k, li.VolumeLiters(capWh), li.PriceDollars(capWh))
	}
	fmt.Fprintln(w, "\nGreenMatch needs the smaller battery: deferred jobs consume solar directly")
	fmt.Fprintln(w, "instead of round-tripping it through the ESD's charging losses.")
	return nil
}
