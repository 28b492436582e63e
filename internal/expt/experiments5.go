package expt

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
)

func init() {
	register(Experiment{
		ID:    "E15",
		Title: "Table VIII — storage service quality: read latency and availability per policy",
		Kind:  "table",
		Run:   runE15,
	})
}

// runE15 quantifies what aggressive energy saving costs the storage
// service: per-read latency percentiles (cold reads pay a multi-second
// spin-up wait) and availability (unserved reads must stay zero thanks to
// the replica-coverage constraint). A sparse object population with
// flattened popularity maximizes the chance of touching parked disks —
// the worst case for spin-down policies.
func runE15(p Params) ([]*metrics.Table, error) {
	pols := []sched.Policy{sched.Baseline{}, sched.SpinDown{}, sched.GreenMatch{}}
	var points []gridPoint
	for _, pol := range pols {
		points = append(points, p.refPoint("policy="+pol.Name(),
			func(s *scenario.Scenario) {
				// Sparse layout + uniform popularity: many parkable disks, reads
				// spread evenly, so the latency tail exposes the spin-down policy.
				s.Objects = max(60, s.Objects/5)
				s.ZipfTheta = 0.01
				s.BatteryKWh = 0
			},
			func(c *core.Config) { c.Policy = pol }))
	}
	results, err := sweep("E15", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title: "E15: read service quality (sparse cold data, uniform popularity)",
		Headers: []string{"policy", "reads", "cold_reads", "unserved", "lat_p50_ms",
			"lat_p99_ms", "lat_max_ms", "disk_spun_hours", "brown_kwh"},
	}
	for pi, pol := range pols {
		res := results[pi]
		lat := res.ReadLatencyMs
		t.AddRow(pol.Name(), lat.N, res.SLA.ColdReads, res.SLA.UnservedReads,
			lat.P50, lat.P99, lat.Max, res.DiskSpunHours, res.Energy.Brown.KWh())
	}
	return []*metrics.Table{t}, nil
}
