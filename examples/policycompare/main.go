// Policy comparison: run the full policy zoo on the same scenario and print
// the headline table (a small-scale live version of experiment E8). The
// runs are independent, so they fan out across every core through the
// public sweep API; the table rows still come back in policy order.
//
// Run with: go run ./examples/policycompare
package main

import (
	"io"
	"log"
	"os"

	greenmatch "repro"
	"repro/scenarios"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	policies := []greenmatch.Policy{
		greenmatch.Baseline{},
		greenmatch.SpinDown{},
		greenmatch.DeferFraction{Fraction: 0.5},
		greenmatch.DeferFraction{Fraction: 1.0},
		greenmatch.GreenMatch{Fraction: 0.5},
		greenmatch.GreenMatch{},
	}

	// The reference run at quarter scale is compiled once and shared
	// read-only by every concurrent run (the documented Config contract);
	// each run copies it and sets its own policy.
	sc, err := scenarios.Load("reference")
	if err != nil {
		return err
	}
	base, err := sc.Scaled(0.25).Compile()
	if err != nil {
		return err
	}

	jobs := make([]greenmatch.SweepJob, len(policies))
	for i, policy := range policies {
		jobs[i] = greenmatch.SweepJob{
			Label: policy.Name(),
			Run: func() (any, error) {
				cfg := base
				cfg.Policy = policy
				return greenmatch.Run(cfg)
			},
		}
	}
	outs := greenmatch.Sweep(jobs, greenmatch.SweepOptions{})
	if err := greenmatch.SweepErrs(outs); err != nil {
		return err
	}

	table := &greenmatch.Table{
		Title: "Policy comparison — 1 week, 8-node storage cluster, 41 m2 PV, 10 kWh LI battery",
		Headers: []string{"policy", "brown_kwh", "green_used_kwh", "green_util_%",
			"misses", "mean_wait", "migrations", "node_hours", "disk_spindowns"},
	}
	for _, out := range outs {
		res := out.Value.(*greenmatch.Result)
		e := res.Energy
		table.AddRow(res.Policy,
			e.Brown.KWh(),
			(e.GreenDirect + e.BatteryOut).KWh(),
			100*e.GreenUtilization(),
			res.SLA.DeadlineMisses,
			res.SLA.MeanWaitSlots(),
			res.SLA.Migrations,
			res.NodeHours,
			res.Disk.SpinDowns)
	}
	return table.WriteText(w)
}
