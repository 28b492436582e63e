package expt

import (
	"fmt"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/wind"
)

func init() {
	register(Experiment{
		ID:    "E7",
		Title: "Table II — battery chemistry comparison (lead-acid vs lithium-ion)",
		Kind:  "table",
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E8",
		Title: "Table III — policy comparison summary (reference scenario)",
		Kind:  "table",
		Run:   runE8,
	})
	register(Experiment{
		ID:    "E9",
		Title: "Fig. 7 — scheduler scalability: plan time vs matching instance size",
		Kind:  "figure",
		Run:   runE9,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Table IV — forecast model ablation (mixed weather)",
		Kind:  "table",
		Run:   runE10,
	})
	register(Experiment{
		ID:    "E11",
		Title: "Fig. 8 — coverage-constrained spin-down vs replication factor",
		Kind:  "figure",
		Run:   runE11,
	})
	register(Experiment{
		ID:    "E12",
		Title: "Table V — wind vs solar vs hybrid renewable supply",
		Kind:  "table",
		Run:   runE12,
	})
}

// runE7 compares the two chemistries at the same nominal capacity in the
// scarce-surplus regime, where charging efficiency determines brown energy.
func runE7(p Params) ([]*metrics.Table, error) {
	chems := []battery.Chemistry{battery.LeadAcid, battery.LithiumIon}
	capWh := units.Energy(90_000 * p.scale())
	var points []gridPoint
	for _, chem := range chems {
		points = append(points, gridPoint{
			label: "chemistry=" + string(chem),
			build: func() core.Config {
				cfg := baseScenario(p)
				cfg.Green = greenFor(p, ScarceAreaM2)
				cfg.BatterySpec = battery.MustSpec(chem)
				cfg.BatteryCapacityWh = capWh
				cfg.RecordSeries = true
				return cfg
			},
		})
	}
	results, err := sweep("E7", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "E7: battery chemistry comparison (90 kWh-class ESD, scarce solar)",
		Headers: []string{"chemistry", "brown_kwh", "battery_loss_kwh", "green_lost_kwh", "volume_l", "price_usd"},
	}
	for ci, chem := range chems {
		res := results[ci]
		spec := battery.MustSpec(chem)
		t.AddRow(string(chem),
			steadyBrown(res).KWh(),
			res.Battery.TotalLoss().KWh(),
			res.Energy.GreenLost.KWh(),
			spec.VolumeLiters(capWh),
			spec.PriceDollars(capWh))
	}
	return []*metrics.Table{t}, nil
}

// runE8 is the headline policy table on the reference scenario with a
// moderate battery.
func runE8(p Params) ([]*metrics.Table, error) {
	pols := []sched.Policy{
		sched.Baseline{},
		sched.SpinDown{},
		sched.DeferFraction{Fraction: 1},
		sched.DeferFraction{Fraction: 0.5},
		sched.GreenMatch{},
		sched.GreenMatch{Fraction: 0.5},
		sched.GreenMatch{Solver: sched.SolverGreedy},
	}
	var points []gridPoint
	for _, pol := range pols {
		points = append(points, gridPoint{
			label: "policy=" + pol.Name(),
			build: func() core.Config {
				cfg := baseScenario(p)
				cfg.Green = greenFor(p, ReferenceAreaM2)
				cfg.BatteryCapacityWh = units.Energy(40_000 * p.scale())
				cfg.Policy = pol
				return cfg
			},
		})
	}
	results, err := sweep("E8", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title: "E8: policy comparison (reference scenario, 40 kWh LI ESD)",
		Headers: []string{"policy", "brown_kwh", "green_used_kwh", "green_util", "misses",
			"mean_wait_slots", "migrations", "suspensions", "node_hours", "disk_spindowns", "cold_reads"},
	}
	for pi, pol := range pols {
		res := results[pi]
		t.AddRow(pol.Name(),
			res.Energy.Brown.KWh(),
			(res.Energy.GreenDirect + res.Energy.BatteryOut).KWh(),
			res.Energy.GreenUtilization(),
			res.SLA.DeadlineMisses,
			res.SLA.MeanWaitSlots(),
			res.SLA.Migrations,
			res.SLA.Suspensions,
			res.NodeHours,
			res.Disk.SpinDowns,
			res.SLA.ColdReads)
	}
	return []*metrics.Table{t}, nil
}

// runE9 times the three assignment solvers (plus the grouped transportation
// fast path) on synthetic instances of growing job count over a 24-slot
// horizon, reporting microseconds per plan.
//
// E9 deliberately stays OFF the parallel sweep runner: it measures
// wall-clock solver latency, and concurrent workers competing for cores
// would distort exactly the quantity the figure reports.
func runE9(p Params) ([]*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "E9: matching solver scaling (24-slot horizon, us/plan)",
		Headers: []string{"jobs", "greedy_us", "hungarian_us", "flow_us", "grouped_us"},
	}
	sizes := []int{10, 25, 50, 100, 200, 400}
	if p.scale() < 0.5 {
		sizes = []int{10, 25, 50, 100}
	}
	s := rng.New(p.seed(), "e9")
	const horizon = 24
	for _, n := range sizes {
		in := match.Instance{Weights: make([][]float64, n), Capacity: make([]int, horizon)}
		latest := make([]int, n)
		for k := range in.Capacity {
			in.Capacity[k] = s.Intn(n/4 + 2)
		}
		for j := 0; j < n; j++ {
			latest[j] = s.Intn(horizon)
			row := make([]float64, horizon)
			for k := range row {
				if k > latest[j] {
					row[k] = match.Forbidden
				} else {
					row[k] = s.Uniform(0, 1)
				}
			}
			in.Weights[j] = row
		}
		timeIt := func(f func() error) (float64, error) {
			// Enough repetitions for a stable microsecond estimate.
			reps := 1
			for {
				start := time.Now()
				for r := 0; r < reps; r++ {
					if err := f(); err != nil {
						return 0, err
					}
				}
				el := time.Since(start)
				if el > 10*time.Millisecond || reps >= 1<<14 {
					return float64(el.Microseconds()) / float64(reps), nil
				}
				reps *= 2
			}
		}
		gUS, err := timeIt(func() error { _, e := match.Greedy(in); return e })
		if err != nil {
			return nil, err
		}
		hUS, err := timeIt(func() error { _, e := match.Hungarian(in); return e })
		if err != nil {
			return nil, err
		}
		fUS, err := timeIt(func() error { _, e := match.Flow(in); return e })
		if err != nil {
			return nil, err
		}
		// Grouped: jobs collapse by latest-start slot.
		groups := make(map[int]int)
		for _, l := range latest {
			groups[l]++
		}
		var gw [][]float64
		var supply []int
		for l := 0; l < horizon; l++ {
			if groups[l] == 0 {
				continue
			}
			row := make([]float64, horizon)
			for k := range row {
				if k > l {
					row[k] = match.Forbidden
				} else {
					row[k] = 0.5
				}
			}
			gw = append(gw, row)
			supply = append(supply, groups[l])
		}
		// A fresh Solver per plan, so the column times a cold solve
		// including its allocation, like the per-job columns.
		grUS, err := timeIt(func() error {
			var sv match.Solver
			_, e := sv.SolveGrouped(gw, supply, in.Capacity)
			return e
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(n, gUS, hUS, fUS, grUS)
	}
	return []*metrics.Table{t}, nil
}

// runE10 ablates the forecaster under the noisy mixed-weather profile.
func runE10(p Params) ([]*metrics.Table, error) {
	// Mixed-weather supply at the reference area. The series is built once
	// and shared read-only across the sweep's workers.
	scfg := solar.DefaultFarm(ReferenceAreaM2 * p.scale())
	scfg.Profile = solar.ProfileMixed
	scfg.Slots = 24 * 21
	scfg.Seed = p.seed()
	green := solar.MustGenerate(scfg)

	fcs := []forecast.Forecaster{
		forecast.Perfect{},
		forecast.Persistence{},
		forecast.MovingAverage{},
		forecast.EWMA{},
		forecast.ClearSky{Farm: scfg},
	}
	var points []gridPoint
	for _, fc := range fcs {
		points = append(points, gridPoint{
			label: "forecaster=" + fc.Name(),
			build: func() core.Config {
				cfg := baseScenario(p)
				cfg.Green = green
				cfg.Forecaster = fc
				cfg.Policy = sched.GreenMatch{}
				return cfg
			},
		})
	}
	results, err := sweep("E10", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "E10: forecast ablation (GreenMatch, mixed weather, no ESD)",
		Headers: []string{"forecaster", "mae_w", "rmse_w", "brown_kwh", "misses", "mean_wait"},
	}
	for fi, fc := range fcs {
		res := results[fi]
		errs := forecast.Evaluate(fc, green, 24)
		t.AddRow(fc.Name(), errs.MAE, errs.RMSE, res.Energy.Brown.KWh(),
			res.SLA.DeadlineMisses, res.SLA.MeanWaitSlots())
	}
	return []*metrics.Table{t}, nil
}

// runE11 varies the replication factor: lower r shrinks the coverage set,
// letting spin-down park more disks, at the price of more cold reads.
func runE11(p Params) ([]*metrics.Table, error) {
	replicas := []int{1, 2, 3}
	var points []gridPoint
	for _, r := range replicas {
		points = append(points, gridPoint{
			label: fmt.Sprintf("replicas=%d", r),
			build: func() core.Config {
				cfg := baseScenario(p)
				cfg.Green = greenFor(p, ReferenceAreaM2)
				cfg.Cluster.Replicas = r
				cfg.Policy = sched.GreenMatch{}
				return cfg
			},
		})
	}
	results, err := sweep("E11", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "E11: coverage-constrained spin-down vs replication factor",
		Headers: []string{"replicas", "min_cover_disks", "total_disks", "brown_kwh", "disk_spun_hours", "cold_reads", "unserved_reads"},
	}
	baseCluster := baseScenario(p).Cluster
	for ri, r := range replicas {
		res := results[ri]
		// Recompute the cover size on a fresh cluster for reporting.
		ccfg := baseCluster
		ccfg.Replicas = r
		cl, err := storage.NewCluster(ccfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(r, len(cl.MinimalCover()), cl.TotalDisks(), res.Energy.Brown.KWh(),
			res.DiskSpunHours, res.SLA.ColdReads, res.SLA.UnservedReads)
	}
	return []*metrics.Table{t}, nil
}

// runE12 compares solar, wind and hybrid supplies of (approximately) equal
// weekly energy.
func runE12(p Params) ([]*metrics.Table, error) {
	solarSeries := greenFor(p, ReferenceAreaM2)
	target := solarSeries.TotalEnergy(1)

	// Scale a wind farm to the same total energy.
	wcfg := wind.DefaultFarm()
	wcfg.Slots = solarSeries.Slots()
	wcfg.Seed = p.seed()
	raw := wind.MustGenerate(wcfg)
	rawTotal := raw.TotalEnergy(1)
	windSeries := raw
	if rawTotal > 0 {
		windSeries = raw.Scale(target.Wh() / rawTotal.Wh())
	}
	hybrid := wind.Hybrid(solarSeries.Scale(0.5), windSeries.Scale(0.5))

	sources := []struct {
		name   string
		series solar.Series
	}{
		{"solar", solarSeries},
		{"wind", windSeries},
		{"hybrid", hybrid},
	}
	pols := []sched.Policy{sched.Baseline{}, sched.GreenMatch{}}
	var points []gridPoint
	for _, src := range sources {
		for _, pol := range pols {
			points = append(points, gridPoint{
				label: fmt.Sprintf("source=%s policy=%s", src.name, pol.Name()),
				build: func() core.Config {
					cfg := baseScenario(p)
					cfg.Green = src.series
					cfg.BatteryCapacityWh = units.Energy(40_000 * p.scale())
					cfg.Policy = pol
					return cfg
				},
			})
		}
	}
	results, err := sweep("E12", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "E12: renewable source comparison at equal weekly energy",
		Headers: []string{"source", "produced_kwh", "baseline_brown_kwh", "greenmatch_brown_kwh"},
	}
	for si, src := range sources {
		base := results[si*len(pols)]
		gm := results[si*len(pols)+1]
		t.AddRow(src.name, src.series.TotalEnergy(1).KWh(),
			base.Energy.Brown.KWh(), gm.Energy.Brown.KWh())
	}
	return []*metrics.Table{t}, nil
}
