package expt

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
)

func init() {
	register(Experiment{
		ID:    "E21",
		Title: "Table XIV — tiered storage: hot/cold split vs homogeneous cluster",
		Kind:  "table",
		Run:   runE21,
	})
}

// runE21 compares a homogeneous enterprise cluster against a tiered layout
// of the same node count: one third of the nodes keep enterprise disks and
// the hottest 20% of objects (where Zipf sends most reads), the rest run
// archive-class disks holding the cold 80%. Tiering is orthogonal to
// scheduling, so both Baseline and GreenMatch run on both layouts; the
// claim is that the tiered cluster draws less power for the same service
// (same availability, reads still mostly land on warm enterprise disks).
func runE21(p Params) ([]*metrics.Table, error) {
	layouts := []struct {
		name string
		scen func(*scenario.Scenario)
	}{
		{"homogeneous", nil},
		{"tiered", func(s *scenario.Scenario) {
			s.HotTierNodes = max(2, int(math.Round(float64(s.Nodes)/3)))
			s.HotShare = 0.2
		}},
	}
	pols := []sched.Policy{sched.Baseline{}, sched.GreenMatch{}}
	var points []gridPoint
	for _, layout := range layouts {
		for _, pol := range pols {
			points = append(points, p.refPoint(fmt.Sprintf("layout=%s policy=%s", layout.name, pol.Name()),
				layout.scen, func(c *core.Config) { c.BatteryCapacityWh, c.Policy = p.kwh(40), pol }))
		}
	}
	results, err := sweep("E21", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title: "E21: tiered vs homogeneous storage (reference solar, 40 kWh LI ESD)",
		Headers: []string{"layout", "policy", "demand_kwh", "brown_kwh",
			"disk_spun_hours", "cold_reads", "unserved", "lat_p99_ms"},
	}
	for li, layout := range layouts {
		for pi, pol := range pols {
			res := results[li*len(pols)+pi]
			t.AddRow(layout.name, pol.Name(), res.Energy.Demand.KWh(), res.Energy.Brown.KWh(),
				res.DiskSpunHours, res.SLA.ColdReads, res.SLA.UnservedReads, res.ReadLatencyMs.P99)
		}
	}
	return []*metrics.Table{t}, nil
}
