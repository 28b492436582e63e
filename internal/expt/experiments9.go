package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
)

func init() {
	register(Experiment{
		ID:    "E20",
		Title: "Table XIII — over-commit safety sweep under the VM utilization model",
		Kind:  "table",
		Run:   runE20,
	})
}

// runE20 quantifies the over-commit trade-off the genre derives its "safe
// configuration" from. With the utilization model on, jobs draw only their
// UtilAt fraction of the reservation, so packing more reservations per
// node (higher over-commit) saves idle power — until over-committed actual
// demand spills over physical capacity, triggering overload events, forced
// migrations and throttled slots. The sweep exposes where the 1.5x default
// sits on that curve.
func runE20(p Params) ([]*metrics.Table, error) {
	overcommits := []float64{1.0, 1.25, 1.5, 1.75, 2.0}
	var points []gridPoint
	for _, oc := range overcommits {
		points = append(points, p.refPoint(fmt.Sprintf("overcommit=%g", oc), nil,
			func(c *core.Config) {
				c.BatteryCapacityWh = p.kwh(40)
				c.ModelUtilization = true
				c.Overcommit = oc
			}))
	}
	results, err := sweep("E20", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title: "E20: over-commit sweep (utilization model on, GreenMatch, 40 kWh LI ESD)",
		Headers: []string{"overcommit", "demand_kwh", "brown_kwh", "node_hours",
			"overload_events", "overload_migrations", "throttled_slots", "misses"},
	}
	for oi, oc := range overcommits {
		res := results[oi]
		t.AddRow(oc, res.Energy.Demand.KWh(), res.Energy.Brown.KWh(), res.NodeHours,
			res.SLA.OverloadEvents, res.SLA.OverloadMigrations, res.SLA.ThrottledSlots,
			res.SLA.DeadlineMisses)
	}
	return []*metrics.Table{t}, nil
}
