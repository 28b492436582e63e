package expt

import (
	"fmt"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/units"
)

func init() {
	register(Experiment{
		ID:    "E13",
		Title: "Table VI — optimal mixed configuration: weekly cost over (defer fraction x battery size)",
		Kind:  "table",
		Run:   runE13,
	})
}

// runE13 sweeps the two control knobs of the paper's conclusion — how much
// work to time-shift (defer fraction) and how much energy to time-shift
// (battery size) — and prices each configuration: grid bill plus battery
// wear (throughput cycles against rated life) plus amortized PV capital.
// The summary reports the cost-optimal mixed point and the brown-energy
// saving of the best mixed configuration relative to the ESD-only baseline
// at the same battery size (the genre's "saves up to 33% vs ESD-only"
// claim).
func runE13(p Params) ([]*metrics.Table, error) {
	fractions := []float64{0, 0.3, 0.5, 0.7, 1.0}
	caps := kwhGrid(p, 120, 30)
	prices := cost.DefaultConfig()
	area := ScarceAreaM2 * p.scale()

	polFor := func(f float64) sched.Policy {
		if f == 0 {
			return sched.Baseline{}
		}
		return sched.GreenMatch{Fraction: f}
	}
	var points []gridPoint
	for _, capWh := range caps {
		for _, f := range fractions {
			points = append(points, p.refPoint(fmt.Sprintf("battery=%gkWh fraction=%g", capWh.KWh(), f),
				func(s *scenario.Scenario) { s.AreaM2 = area },
				func(c *core.Config) { c.BatteryCapacityWh, c.Policy = capWh, polFor(f) }))
		}
	}
	results, err := sweep("E13", p, points)
	if err != nil {
		return nil, err
	}

	grid := &metrics.Table{
		Title:   "E13: weekly cost ($) over defer fraction x battery size (scarce solar)",
		Headers: []string{"battery_kwh", "policy", "brown_kwh", "battery_cycles", "cost_brown", "cost_wear", "cost_pv", "cost_total"},
	}
	type point struct {
		frac  float64
		capWh units.Energy
		brown units.Energy
		total float64
	}
	var best *point
	baselineBrown := make(map[units.Energy]units.Energy)
	var bestSaving float64
	var bestSavingAt point

	for ci, capWh := range caps {
		for fi, f := range fractions {
			res := results[ci*len(fractions)+fi]
			pol := polFor(f)
			bd, err := cost.Evaluate(prices, res, battery.MustSpec(battery.LithiumIon), capWh, area)
			if err != nil {
				return nil, err
			}
			grid.AddRow(capWh.KWh(), pol.Name(), res.Energy.Brown.KWh(), res.BatteryCycles,
				bd.Brown, bd.BatteryWear, bd.PVAmortized, bd.Total())

			pt := point{frac: f, capWh: capWh, brown: res.Energy.Brown, total: bd.Total()}
			if f == 0 {
				baselineBrown[capWh] = res.Energy.Brown
			} else if base, ok := baselineBrown[capWh]; ok && base > 0 {
				saving := 1 - res.Energy.Brown.Wh()/base.Wh()
				if saving > bestSaving {
					bestSaving = saving
					bestSavingAt = pt
				}
			}
			if best == nil || pt.total < best.total {
				cp := pt
				best = &cp
			}
		}
	}

	summary := &metrics.Table{Title: "E13 summary", Headers: []string{"metric", "value"}}
	if best != nil {
		summary.AddRow("cost-optimal defer fraction", best.frac)
		summary.AddRow("cost-optimal battery (kWh)", best.capWh.KWh())
		summary.AddRow("cost-optimal weekly total ($)", best.total)
	}
	summary.AddRow("max brown saving vs ESD-only at equal battery (%)", 100*bestSaving)
	summary.AddRow("achieved at", fmt.Sprintf("fraction=%.1f battery=%.0fkWh", bestSavingAt.frac, bestSavingAt.capWh.KWh()))
	return []*metrics.Table{grid, summary}, nil
}
