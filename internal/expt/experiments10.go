package expt

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/units"
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
	base := baseScenario(p)
	nodes := base.Cluster.Nodes
	hotNodes := max(2, int(math.Round(float64(nodes)/3)))
	coldNodes := max(2, nodes-hotNodes)

	layouts := []struct {
		name  string
		tiers []storage.Tier
	}{
		{"homogeneous", nil},
		{"tiered", []storage.Tier{
			{Name: "hot", Nodes: hotNodes, Server: power.R720(), Disk: power.EnterpriseHDD(), ObjectShare: 0.2},
			{Name: "cold", Nodes: coldNodes, Server: power.R720(), Disk: power.ArchiveHDD(), ObjectShare: 0.8},
		}},
	}
	pols := []sched.Policy{sched.Baseline{}, sched.GreenMatch{}}
	var points []gridPoint
	for _, layout := range layouts {
		for _, pol := range pols {
			points = append(points, gridPoint{
				label: fmt.Sprintf("layout=%s policy=%s", layout.name, pol.Name()),
				build: func() core.Config {
					cfg := baseScenario(p)
					cfg.Green = greenFor(p, ReferenceAreaM2)
					cfg.BatteryCapacityWh = units.Energy(40_000 * p.scale())
					cfg.Policy = pol
					cfg.Cluster.Tiers = layout.tiers
					return cfg
				},
			})
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
