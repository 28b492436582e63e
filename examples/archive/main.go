// Archive tier: a cold-storage scenario dominated by deferrable maintenance
// I/O (scrubbing, backups, replica repair) on archive-class disks with a
// weak interactive load. This is the regime GreenMatch's title targets —
// massive storage where almost all work is time-shiftable and most energy
// sits in spindles, so the combination of deferral and coverage-constrained
// spin-down pays the most.
//
// Run with: go run ./examples/archive
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	greenmatch "repro"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Tiered layout: a small hot tier of enterprise spindles holds the 15%
	// hottest objects; archive-class disks hold the cold bulk of a dense
	// archival placement. Reads are sparse and Zipf-skewed, and there is
	// no battery.
	sc := greenmatch.Scenario{
		Seed:         1,
		Nodes:        10,
		Objects:      5000,
		HotTierNodes: 3,
		HotShare:     0.15,
		AreaM2:       50,
		ReadsPerSlot: 30,
		ZipfTheta:    1.1,
	}
	cfg, err := sc.Compile()
	if err != nil {
		return err
	}

	// Maintenance-heavy workload: few web VMs, a modest batch load, and a
	// large scrub/backup/repair population with long deadlines. A scenario
	// only scales the reference week, so this trace replaces the compiled
	// one.
	gen := workload.DefaultGen()
	gen.WebJobs = 40
	gen.BatchJobs = 200
	gen.ScrubJobs = 600
	gen.BackupJobs = 300
	gen.RepairJobs = 100
	gen.Seed = sc.Seed
	if cfg.Trace, err = workload.Generate(gen); err != nil {
		return err
	}

	table := &greenmatch.Table{
		Title: "Archive store — 3 hot + 7 cold tiered nodes, 50 m2 PV, no battery",
		Headers: []string{"policy", "brown_kwh", "green_util_%", "disk_spun_hours",
			"spindowns", "cold_reads", "misses"},
	}
	for _, policy := range []greenmatch.Policy{
		greenmatch.Baseline{},
		greenmatch.SpinDown{},
		greenmatch.GreenMatch{},
	} {
		cfg.Policy = policy
		res, err := greenmatch.Run(cfg)
		if err != nil {
			return err
		}
		table.AddRow(res.Policy,
			res.Energy.Brown.KWh(),
			100*res.Energy.GreenUtilization(),
			res.DiskSpunHours,
			res.Disk.SpinDowns,
			res.SLA.ColdReads,
			res.SLA.DeadlineMisses)
	}
	if err := table.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nOn a cold tier the coverage set is what keeps disks spinning; GreenMatch")
	fmt.Fprintln(w, "additionally times the scrub/backup waves to the solar window.")
	return nil
}
