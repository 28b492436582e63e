package expt

import (
	"fmt"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/units"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Fig. 1 — weekly workload power vs. solar supply (reference farm)",
		Kind:  "figure",
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "Fig. 2 — brown energy and supply ratio vs. PV panel area (ideal ESD)",
		Kind:  "figure",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E3",
		Title: "Fig. 3 — brown energy vs. battery size with sized panels (Baseline-ESD vs GreenMatch)",
		Kind:  "figure",
		Run:   runE3,
	})
	register(Experiment{
		ID:    "E4",
		Title: "Fig. 4 — brown energy vs. battery size under scarce solar, defer fractions",
		Kind:  "figure",
		Run:   runE4,
	})
	register(Experiment{
		ID:    "E5",
		Title: "Fig. 5 — renewable energy lost vs. battery size (scarce solar)",
		Kind:  "figure",
		Run:   runE5,
	})
	register(Experiment{
		ID:    "E6",
		Title: "Fig. 6 — loss decomposition: battery losses vs. scheduling overheads",
		Kind:  "figure",
		Run:   runE6,
	})
}

// runE1 produces the supply/demand series of the reference week.
func runE1(p Params) ([]*metrics.Table, error) {
	results, err := sweep("E1", p, []gridPoint{p.refPoint("ref",
		func(s *scenario.Scenario) {
			s.BatteryKWh = 0
			s.RecordSeries = true
		},
		func(c *core.Config) { c.Policy = sched.Baseline{} })})
	if err != nil {
		return nil, err
	}
	res := results[0]
	t := &metrics.Table{
		Title:   "E1: workload power vs solar supply (first week, hourly)",
		Headers: []string{"slot", "workload_w", "solar_w", "brown_w"},
	}
	for _, s := range res.Series.Samples {
		if s.Slot >= 168 {
			break
		}
		t.AddRow(s.Slot, s.DemandW, s.GreenW, s.BrownW)
	}
	return []*metrics.Table{t}, nil
}

// runE2 sweeps PV area under an ideal (infinite) ESD and reports the
// steady-state brown energy of both Baseline-ESD and GreenMatch plus the
// supply ratio; the break-even area of each policy is where its
// steady-state brown reaches zero. GreenMatch's demand reduction
// (consolidation + coverage-constrained spin-down) shrinks the panel
// dimension the facility has to buy.
func runE2(p Params) ([]*metrics.Table, error) {
	// The grid refines around the expected break-even (175-200 m2) so the
	// two policies' crossings resolve.
	areas := []float64{0, 25, 50, 75, 100, 125, 150, 175, 180, 185, 190, 195, 200, 250, 300, 350, 400}
	pols := []sched.Policy{sched.Baseline{}, sched.GreenMatch{}}
	var points []gridPoint
	for _, area := range areas {
		for _, pol := range pols {
			points = append(points, p.refPoint(fmt.Sprintf("area=%g policy=%s", area, pol.Name()),
				func(s *scenario.Scenario) {
					s.AreaM2 = area * p.scale()
					s.BatteryKWh = 0
					s.InfiniteBattery = true
					s.RecordSeries = true
				},
				func(c *core.Config) { c.Policy = pol }))
		}
	}
	results, err := sweep("E2", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "E2: brown energy vs panel area (infinite ideal ESD)",
		Headers: []string{"area_m2", "supply_ratio", "baseline_steady_brown_kwh", "greenmatch_steady_brown_kwh"},
	}
	breakEven := map[string]float64{"baseline": -1, "greenmatch": -1}
	for ai, area := range areas {
		cells := []any{area * p.scale()}
		for pi, pol := range pols {
			res := results[ai*len(pols)+pi]
			if pol.Name() == "baseline" && res.Energy.TotalLoad() > 0 {
				cells = append(cells, res.Energy.GreenProduced.Wh()/res.Energy.TotalLoad().Wh())
			}
			sb := steadyBrown(res)
			cells = append(cells, sb.KWh())
			if breakEven[pol.Name()] < 0 && sb < units.Energy(1000*p.scale()) {
				breakEven[pol.Name()] = area * p.scale()
			}
		}
		t.AddRow(cells...)
	}
	summary := &metrics.Table{
		Title:   "E2 summary",
		Headers: []string{"metric", "value"},
	}
	summary.AddRow("baseline break-even area (m2)", breakEven["baseline"])
	summary.AddRow("greenmatch break-even area (m2)", breakEven["greenmatch"])
	return []*metrics.Table{t, summary}, nil
}

// runE3 sweeps battery capacity with sized panels: the genre's claim is
// that GreenMatch reaches zero steady-state brown with a markedly smaller
// battery than Baseline-ESD.
func runE3(p Params) ([]*metrics.Table, error) {
	caps := kwhGrid(p, 160, 20)
	pols := []sched.Policy{sched.Baseline{}, sched.GreenMatch{}}
	sized := func(s *scenario.Scenario) {
		s.AreaM2 = IdealAreaM2 * p.scale()
		s.RecordSeries = true
	}
	var points []gridPoint
	for _, cap := range caps {
		for _, pol := range pols {
			points = append(points, p.refPoint(fmt.Sprintf("battery=%gkWh policy=%s", cap.KWh(), pol.Name()),
				sized, func(c *core.Config) { c.BatteryCapacityWh, c.Policy = cap, pol }))
		}
	}
	results, err := sweep("E3", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "E3: brown energy vs battery size, sized panels",
		Headers: []string{"battery_kwh", "baseline_brown_kwh", "greenmatch_brown_kwh", "li_volume_l", "la_volume_l"},
	}
	li := battery.MustSpec(battery.LithiumIon)
	la := battery.MustSpec(battery.LeadAcid)
	zeroBase, zeroGM := -1.0, -1.0
	for ci, cap := range caps {
		row := make(map[string]units.Energy, 2)
		for pi, pol := range pols {
			row[pol.Name()] = steadyBrown(results[ci*len(pols)+pi])
		}
		t.AddRow(cap.KWh(), row["baseline"].KWh(), row["greenmatch"].KWh(),
			li.VolumeLiters(cap), la.VolumeLiters(cap))
		if zeroBase < 0 && row["baseline"] < 1000 {
			zeroBase = cap.KWh()
		}
		if zeroGM < 0 && row["greenmatch"] < 1000 {
			zeroGM = cap.KWh()
		}
	}
	summary := &metrics.Table{Title: "E3 summary", Headers: []string{"metric", "value"}}
	summary.AddRow("baseline zero-brown battery (kWh)", zeroBase)
	summary.AddRow("greenmatch zero-brown battery (kWh)", zeroGM)
	if zeroBase > 0 && zeroGM > 0 {
		summary.AddRow("battery size reduction (%)", 100*(zeroBase-zeroGM)/zeroBase)
	}
	return []*metrics.Table{t, summary}, nil
}

// runE4 sweeps battery capacity under scarce solar for the defer-fraction
// family: small batteries favour deferral; large batteries let Baseline-ESD
// catch up.
func runE4(p Params) ([]*metrics.Table, error) {
	fractions := []float64{0.3, 0.5, 0.7, 0.9, 1.0}
	caps := kwhGrid(p, 120, 20)
	scarce := func(s *scenario.Scenario) {
		s.AreaM2 = ScarceAreaM2 * p.scale()
		s.RecordSeries = true
	}
	// Column order per capacity: the baseline first, then the
	// defer-fraction family.
	var points []gridPoint
	for _, cap := range caps {
		points = append(points, p.refPoint(fmt.Sprintf("battery=%gkWh policy=baseline", cap.KWh()),
			scarce, func(c *core.Config) { c.BatteryCapacityWh, c.Policy = cap, sched.Baseline{} }))
		for _, f := range fractions {
			points = append(points, p.refPoint(fmt.Sprintf("battery=%gkWh fraction=%g", cap.KWh(), f),
				scarce, func(c *core.Config) { c.BatteryCapacityWh, c.Policy = cap, sched.GreenMatch{Fraction: f} }))
		}
	}
	results, err := sweep("E4", p, points)
	if err != nil {
		return nil, err
	}

	headers := []string{"battery_kwh", "baseline_kwh"}
	for _, f := range fractions {
		headers = append(headers, (sched.GreenMatch{Fraction: f}).Name()+"_kwh")
	}
	t := &metrics.Table{
		Title:   "E4: brown energy vs battery size, scarce solar, defer fractions",
		Headers: headers,
	}
	perCap := 1 + len(fractions)
	for ci, cap := range caps {
		cells := []any{cap.KWh()}
		for k := 0; k < perCap; k++ {
			cells = append(cells, steadyBrown(results[ci*perCap+k]).KWh())
		}
		t.AddRow(cells...)
	}
	return []*metrics.Table{t}, nil
}

// runE5 reports renewable energy lost (battery full / rate-limited / no
// sink) vs battery size under scarce solar.
func runE5(p Params) ([]*metrics.Table, error) {
	// SpinDown is the like-for-like reference for GreenMatch: both reduce
	// demand by consolidation and disk parking, so the delta between their
	// columns isolates the effect of deferral on surplus absorption.
	// Baseline is included because it soaks surplus into idle hardware.
	caps := kwhGrid(p, 120, 20)
	pols := []sched.Policy{sched.Baseline{}, sched.SpinDown{}, sched.GreenMatch{}}
	scarce := func(s *scenario.Scenario) {
		s.AreaM2 = ScarceAreaM2 * p.scale()
		s.RecordSeries = true
	}
	var points []gridPoint
	for _, cap := range caps {
		for _, pol := range pols {
			points = append(points, p.refPoint(fmt.Sprintf("battery=%gkWh policy=%s", cap.KWh(), pol.Name()),
				scarce, func(c *core.Config) { c.BatteryCapacityWh, c.Policy = cap, pol }))
		}
	}
	results, err := sweep("E5", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "E5: solar energy lost vs battery size (scarce solar)",
		Headers: []string{"battery_kwh", "baseline_lost_kwh", "spindown_lost_kwh", "greenmatch_lost_kwh"},
	}
	for ci, cap := range caps {
		cells := []any{cap.KWh()}
		for pi := range pols {
			cells = append(cells, steadyLost(results[ci*len(pols)+pi]).KWh())
		}
		t.AddRow(cells...)
	}
	return []*metrics.Table{t}, nil
}

// runE6 decomposes the losses: battery-internal (efficiency +
// self-discharge) vs scheduling overhead (migrations + spin transients),
// for Baseline, GreenMatch and the 30% mixed configuration.
func runE6(p Params) ([]*metrics.Table, error) {
	pols := []sched.Policy{sched.Baseline{}, sched.GreenMatch{}, sched.GreenMatch{Fraction: 0.3}}
	caps := kwhGrid(p, 120, 20)
	scarce := func(s *scenario.Scenario) { s.AreaM2 = ScarceAreaM2 * p.scale() }
	var points []gridPoint
	for _, cap := range caps {
		for _, pol := range pols {
			points = append(points, p.refPoint(fmt.Sprintf("battery=%gkWh policy=%s", cap.KWh(), pol.Name()),
				scarce, func(c *core.Config) { c.BatteryCapacityWh, c.Policy = cap, pol }))
		}
	}
	results, err := sweep("E6", p, points)
	if err != nil {
		return nil, err
	}

	headers := []string{"battery_kwh"}
	for _, pol := range pols {
		headers = append(headers, pol.Name()+"_battery_loss_kwh", pol.Name()+"_sched_overhead_kwh", pol.Name()+"_total_kwh")
	}
	t := &metrics.Table{
		Title:   "E6: loss decomposition vs battery size (scarce solar)",
		Headers: headers,
	}
	for ci, cap := range caps {
		cells := []any{cap.KWh()}
		for pi := range pols {
			res := results[ci*len(pols)+pi]
			batLoss := res.Energy.BatteryEffLoss + res.Energy.BatterySelfLoss
			schedLoss := res.Energy.MigrationOverhead + res.Energy.TransitionOverhead
			cells = append(cells, batLoss.KWh(), schedLoss.KWh(), (batLoss + schedLoss).KWh())
		}
		t.AddRow(cells...)
	}
	return []*metrics.Table{t}, nil
}
