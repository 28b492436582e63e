package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/units"
)

func init() {
	register(Experiment{
		ID:    "E17",
		Title: "Table X — DVFS power-model ablation: linear vs superlinear dynamic power",
		Kind:  "table",
		Run:   runE17,
	})
	register(Experiment{
		ID:    "E18",
		Title: "Table XI — seasonal sensitivity: sunlight profiles and day length",
		Kind:  "table",
		Run:   runE18,
	})
}

// runE17 reruns the policy comparison under a DVFS-governed server power
// curve (dynamic term ~ u^1.7 instead of linear). Superlinear dynamic power
// makes partial load cheaper, which shrinks the value of consolidation —
// the savings attributable to the scheduler must be robust to the power
// model, not an artifact of linearity.
func runE17(p Params) ([]*metrics.Table, error) {
	alphas := []float64{1.0, 1.7}
	pols := []sched.Policy{sched.Baseline{}, sched.GreenMatch{}}
	var points []gridPoint
	for _, alpha := range alphas {
		for _, pol := range pols {
			points = append(points, p.refPoint(fmt.Sprintf("alpha=%g policy=%s", alpha, pol.Name()), nil,
				func(c *core.Config) {
					c.BatteryCapacityWh, c.Policy = p.kwh(40), pol
					c.Cluster.NodeProfile.Server = c.Cluster.NodeProfile.Server.WithDVFS(alpha)
				}))
		}
	}
	results, err := sweep("E17", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "E17: DVFS power-model ablation (40 kWh LI ESD, reference solar)",
		Headers: []string{"dvfs_alpha", "policy", "demand_kwh", "brown_kwh", "gm_saving_vs_baseline_%"},
	}
	for ai, alpha := range alphas {
		var baselineBrown units.Energy
		for pi, pol := range pols {
			res := results[ai*len(pols)+pi]
			saving := 0.0
			if pol.Name() == "baseline" {
				baselineBrown = res.Energy.Brown
			} else if baselineBrown > 0 {
				saving = 100 * (1 - res.Energy.Brown.Wh()/baselineBrown.Wh())
			}
			t.AddRow(alpha, pol.Name(), res.Energy.Demand.KWh(), res.Energy.Brown.KWh(), saving)
		}
	}
	return []*metrics.Table{t}, nil
}

// runE18 sweeps the sunlight regime: the midsummer sunny reference, a
// mixed and an overcast summer, and a midwinter week (short days, weak
// sun). The scheduler's absolute savings shrink with the harvest, but its
// relative advantage over ESD-only must persist in every season.
func runE18(p Params) ([]*metrics.Table, error) {
	seasons := []struct {
		name    string
		day     int
		profile solar.Profile
	}{
		{"summer-sunny", 173, solar.ProfileSunny},
		{"summer-mixed", 173, solar.ProfileMixed},
		{"summer-overcast", 173, solar.ProfileOvercast},
		{"winter", 355, solar.ProfileWinter},
	}
	// The reference is compiled once and each season's supply generated
	// once; a season's two policy runs share them read-only.
	ref, err := p.reference()
	if err != nil {
		return nil, fmt.Errorf("expt E18: %w", err)
	}
	base, err := ref.Compile()
	if err != nil {
		return nil, fmt.Errorf("expt E18: %w", err)
	}
	greens := make([]solar.Series, len(seasons))
	for i, season := range seasons {
		scfg := solar.DefaultFarm(ref.AreaM2)
		scfg.StartDayOfYear = season.day
		scfg.Profile = season.profile
		scfg.Slots = 24 * 21
		scfg.Seed = p.seed()
		green, err := solar.Generate(scfg)
		if err != nil {
			return nil, err
		}
		greens[i] = green
	}
	pols := []sched.Policy{sched.Baseline{}, sched.GreenMatch{}}
	var points []gridPoint
	for si, season := range seasons {
		green := greens[si]
		for _, pol := range pols {
			cfg := base
			cfg.Green, cfg.BatteryCapacityWh, cfg.Policy = green, p.kwh(40), pol
			points = append(points, point(fmt.Sprintf("season=%s policy=%s", season.name, pol.Name()), cfg))
		}
	}
	results, err := sweep("E18", p, points)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title: "E18: seasonal sensitivity (40 kWh LI ESD, 165.6 m2-class PV)",
		Headers: []string{"season", "produced_kwh", "baseline_brown_kwh",
			"greenmatch_brown_kwh", "gm_saving_%"},
	}
	for si, season := range seasons {
		base := results[si*len(pols)].Energy.Brown
		gm := results[si*len(pols)+1].Energy.Brown
		saving := 0.0
		if base > 0 {
			saving = 100 * (1 - gm.Wh()/base.Wh())
		}
		t.AddRow(season.name, greens[si].TotalEnergy().KWh(), base.KWh(), gm.KWh(), saving)
	}
	return []*metrics.Table{t}, nil
}
