package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/scenarios"
)

func init() {
	register(Experiment{
		ID:    "E22",
		Title: "Table XV — policy arena: competitive ratios vs the offline-optimal oracle",
		Kind:  "table",
		Run:   runE22,
	})
}

// ArenaPolicies is the full policy arena: every scheduling genre the
// evaluation compares, one representative configuration each. The arena
// experiment, the oracle property test and the chaos harness all iterate
// this list so a new policy joins every comparison by being added here.
func ArenaPolicies() []sched.Policy {
	return []sched.Policy{
		sched.Baseline{},
		sched.SpinDown{},
		sched.DeferFraction{Fraction: 0.6},
		sched.GreenMatch{},
		sched.GreenMatch{Fraction: 0.5},
		sched.EDF{},
		sched.KChoices{},
		sched.Cucumber{},
	}
}

// runE22 runs every arena policy against every shipped scenario on an
// identical substrate (one compiled config per scenario, only the Policy
// field swapped) and scores each run as a competitive ratio against the
// offline-optimal oracle's brown-energy lower bound (internal/oracle,
// docs/ARENA.md). Ratios replace relative claims ("beats baseline by 12%")
// with absolute ones ("within 1.4x of any possible schedule"). A zero
// bound renders as "n/a": a ratio over it is not meaningful.
func runE22(p Params) ([]*metrics.Table, error) {
	pols := ArenaPolicies()
	names := scenarios.Names()
	type arena struct {
		name string
		cfg  core.Config
		rep  oracle.Report
	}
	arenas := make([]arena, 0, len(names))
	for _, name := range names {
		sc, err := scenarios.Load(name)
		if err != nil {
			return nil, fmt.Errorf("expt E22: %s: %w", name, err)
		}
		cfg, err := sc.Scaled(p.scale()).Compile()
		if err != nil {
			return nil, fmt.Errorf("expt E22: %s: %w", name, err)
		}
		rep, err := oracle.Solve(cfg)
		if err != nil {
			return nil, fmt.Errorf("expt E22: %s: %w", name, err)
		}
		arenas = append(arenas, arena{name: name, cfg: cfg, rep: rep})
	}

	var points []gridPoint
	for _, a := range arenas {
		for _, pol := range pols {
			cfg := a.cfg
			cfg.Policy = pol
			points = append(points, point(fmt.Sprintf("scenario=%s policy=%s", a.name, pol.Name()), cfg))
		}
	}
	results, err := sweep("E22", p, points)
	if err != nil {
		return nil, err
	}

	var tables []*metrics.Table
	summary := &metrics.Table{
		Title:   "E22 summary: competitive ratios per scenario (policy brown / oracle bound)",
		Headers: []string{"scenario", "oracle_kwh", "best_policy", "best_ratio", "mean_ratio"},
	}
	grandSum, grandN := 0.0, 0
	for ai, a := range arenas {
		t := &metrics.Table{
			Title:   fmt.Sprintf("E22 arena: %s (oracle bound %.4g kWh over %d slots)", a.name, a.rep.Brown.KWh(), a.rep.Slots),
			Headers: []string{"policy", "demand_kwh", "brown_kwh", "ratio"},
		}
		bestName, bestRatio := "n/a", 0.0
		sum, n := 0.0, 0
		for pi, pol := range pols {
			res := results[ai*len(pols)+pi]
			ratioCell := any("n/a")
			if ratio, ok := a.rep.Ratio(res.Energy.Brown); ok {
				ratioCell = ratio
				sum += ratio
				n++
				grandSum += ratio
				grandN++
				if bestName == "n/a" || ratio < bestRatio {
					bestName, bestRatio = pol.Name(), ratio
				}
			}
			t.AddRow(pol.Name(), res.Energy.Demand.KWh(), res.Energy.Brown.KWh(), ratioCell)
		}
		tables = append(tables, t)
		if n > 0 {
			summary.AddRow(a.name, a.rep.Brown.KWh(), bestName, bestRatio, sum/float64(n))
		} else {
			summary.AddRow(a.name, a.rep.Brown.KWh(), "n/a", "n/a", "n/a")
		}
	}
	if grandN > 0 {
		summary.AddRow("overall", "-", "-", "-", grandSum/float64(grandN))
	}
	return append(tables, summary), nil
}
