// Panel sizing: sweep PV area under an ideal (infinite) ESD to find the
// break-even dimension at which the workload needs no brown energy in
// steady state — the live version of experiment E2.
//
// Run with: go run ./examples/panelsizing
package main

import (
	"fmt"
	"io"
	"log"
	"math"
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
	// The reference run at quarter scale under an ideal ESD; only the
	// panel area varies. The area is a scenario field, so each grid point
	// compiles its own supply.
	sc, err := scenarios.Load("reference")
	if err != nil {
		return err
	}
	sc = sc.Scaled(0.25)
	sc.InfiniteBattery = true
	sc.RecordSeries = true

	table := &greenmatch.Table{
		Title:   "Brown energy vs PV area — infinite ideal ESD, baseline policy, 8 nodes",
		Headers: []string{"area_m2", "produced_kwh", "supply_ratio", "steady_brown_kwh"},
	}
	breakEven := -1.0
	for _, area := range []float64{0, 10, 20, 30, 40, 50, 60, 80, 100} {
		sc.AreaM2 = area
		cfg, err := sc.Compile()
		if err != nil {
			return err
		}
		cfg.Policy = greenmatch.Baseline{}
		res, err := greenmatch.Run(cfg)
		if err != nil {
			return err
		}
		var steady float64
		for _, s := range res.Series.Samples {
			if s.Slot >= 24 {
				steady += s.BrownW / 1000
			}
		}
		ratio := res.Energy.GreenProduced.Wh() / res.Energy.TotalLoad().Wh()
		table.AddRow(area, res.Energy.GreenProduced.KWh(), ratio, steady)
		if breakEven < 0 && steady < 1 {
			breakEven = area
		}
	}
	if err := table.WriteText(w); err != nil {
		return err
	}
	if breakEven >= 0 {
		side := math.Sqrt(breakEven)
		fmt.Fprintf(w, "\nBreak-even panel dimension: ~%.0f m^2 (%.1f x %.1f m): beyond this,\n", breakEven, side, side)
		fmt.Fprintln(w, "an ideal ESD can time-shift the surplus to cover every night.")
	} else {
		fmt.Fprintln(w, "\nNo break-even in this sweep; widen the area grid.")
	}
	return nil
}
