package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "Table XII — battery-aware matching ablation",
		Kind:  "table",
		Run:   runE19,
	})
}

// runE19 ablates GreenMatch's suspension mechanism: the BatteryAware
// variant refuses to suspend running jobs whenever the ESD is large enough
// to buffer the load, on the intuition that the battery moves the energy
// through time anyway (at sigma) without VM churn. The measured result is
// the interesting part: in the scarce-solar regime the intuition is wrong
// — suspensions earn their cost, because the battery is rate- and
// capacity-limited exactly when the shifting matters, so the no-churn
// variant pays measurably more brown energy. Without a battery the two
// variants are identical by construction.
func runE19(p Params) ([]*metrics.Table, error) {
	caps := kwhGrid(p, 120, 40)
	pols := []sched.Policy{
		sched.GreenMatch{},
		sched.GreenMatch{BatteryAware: true},
	}
	var points []gridPoint
	for _, cap := range caps {
		for _, pol := range pols {
			points = append(points, p.refPoint(fmt.Sprintf("battery=%gkWh policy=%s", cap.KWh(), pol.Name()),
				func(s *scenario.Scenario) { s.AreaM2 = ScarceAreaM2 * p.scale() },
				func(c *core.Config) { c.BatteryCapacityWh, c.Policy = cap, pol }))
		}
	}
	results, err := sweep("E19", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title: "E19: battery-aware matching ablation (scarce solar)",
		Headers: []string{"battery_kwh", "policy", "brown_kwh", "suspensions",
			"migrations", "mgmt_overhead_kwh", "mean_wait_slots"},
	}
	for ci, cap := range caps {
		for pi, pol := range pols {
			res := results[ci*len(pols)+pi]
			t.AddRow(cap.KWh(), pol.Name(), res.Energy.Brown.KWh(),
				res.SLA.Suspensions, res.SLA.Migrations,
				res.Energy.MigrationOverhead.KWh(), res.SLA.MeanWaitSlots())
		}
	}
	return []*metrics.Table{t}, nil
}
