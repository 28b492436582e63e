package expt

import (
	"repro/internal/carbon"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
)

func init() {
	register(Experiment{
		ID:    "E16",
		Title: "Table IX — carbon footprint under flat vs diurnal grid intensity",
		Kind:  "table",
		Run:   runE16,
	})
}

// runE16 converts each policy's brown draw into CO2 under two grid models:
// a flat 300 g/kWh grid and a fossil-marginal diurnal grid peaking in the
// evening. The shape claim: scheduling work into the solar window avoids
// exactly the hours the diurnal grid is dirtiest, so GreenMatch's carbon
// advantage exceeds its energy advantage.
func runE16(p Params) ([]*metrics.Table, error) {
	flat := carbon.Flat{GramsPerKWh: 300}
	diurnal := carbon.DefaultDiurnal()
	pols := []sched.Policy{sched.Baseline{}, sched.SpinDown{}, sched.DeferFraction{Fraction: 1}, sched.GreenMatch{}}
	var points []gridPoint
	for _, pol := range pols {
		points = append(points, p.refPoint("policy="+pol.Name(),
			func(s *scenario.Scenario) { s.RecordSeries = true },
			func(c *core.Config) { c.BatteryCapacityWh, c.Policy = p.kwh(40), pol }))
	}
	results, err := sweep("E16", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title: "E16: weekly carbon footprint (40 kWh LI ESD, reference solar)",
		Headers: []string{"policy", "brown_kwh", "co2_flat_kg", "co2_diurnal_kg",
			"diurnal_vs_flat_ratio"},
	}
	for pi, pol := range pols {
		res := results[pi]
		flatKg, err := carbon.Footprint(res.Series, flat)
		if err != nil {
			return nil, err
		}
		diuKg, err := carbon.Footprint(res.Series, diurnal)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if flatKg > 0 {
			ratio = diuKg / flatKg
		}
		t.AddRow(pol.Name(), res.Energy.Brown.KWh(), flatKg, diuKg, ratio)
	}
	return []*metrics.Table{t}, nil
}
