// Command greenmatch runs one GreenMatch simulation scenario from flags and
// prints the energy/SLA report as a text table (CSV with -csv, raw JSON
// with -json). Scenarios can also be loaded from JSON files (-scenario).
//
// Examples:
//
//	greenmatch -policy greenmatch -area 165.6 -battery-kwh 40
//	greenmatch -policy defer -fraction 0.5 -profile mixed -chemistry lead-acid
//	greenmatch -policy baseline -nodes 30 -scale 1.0 -series series.csv
//	greenmatch -save-scenario run.json -scale 0.5 && greenmatch -scenario run.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/solar"
	"repro/internal/wind"
	"repro/scenarios"
)

func main() {
	var rf runFlags
	flag.StringVar(&rf.policy, "policy", "greenmatch", "scheduling policy: baseline | spindown | defer | greenmatch | mixed | edf | kchoices | cucumber")
	flag.Float64Var(&rf.fraction, "fraction", 1.0, "defer fraction for defer/mixed policies (0..1]")
	flag.StringVar(&rf.solver, "solver", "flow", "greenmatch matching solver: flow | greedy")
	flag.Float64Var(&rf.scale, "scale", 0.25, "workload scale factor, > 0 (1.0 = reference week: 787 web + 3148 batch jobs)")
	flag.IntVar(&rf.nodes, "nodes", 0, "storage nodes (0 = scale the 30-node reference)")
	flag.Float64Var(&rf.area, "area", 0, "solar panel area in m^2 (0 = scale the 165.6 m^2 reference)")
	flag.StringVar(&rf.profile, "profile", "sunny", "weather profile: sunny | mixed | overcast | winter")
	flag.StringVar(&rf.source, "source", "solar", "renewable source: solar | wind | hybrid")
	flag.Float64Var(&rf.batteryKWh, "battery-kwh", 0, "ESD nominal capacity in kWh (0 = no ESD)")
	flag.StringVar(&rf.chemistry, "chemistry", "lithium-ion", "ESD chemistry: lithium-ion | lead-acid")
	flag.StringVar(&rf.forecaster, "forecast", "perfect", "forecaster: perfect | persistence | ma | ewma")
	flag.Int64Var(&rf.seed, "seed", 1, "random seed")
	flag.Float64Var(&rf.mtbf, "failure-mtbf", 0, "node failure MTBF in hours (0 = no failures)")
	var (
		csvOut     = flag.Bool("csv", false, "emit the report as CSV instead of text")
		jsonOut    = flag.Bool("json", false, "emit the raw result as JSON (machine-readable; includes the series when recorded)")
		seriesPath = flag.String("series", "", "write the per-slot time series CSV to this file")
		scenPath   = flag.String("scenario", "", "load the run from a JSON scenario file (overrides the other flags)")
		saveScen   = flag.String("save-scenario", "", "write the reference scenario, scaled by -scale, as JSON to this file and exit")
	)
	flag.Parse()

	if *saveScen != "" {
		if err := saveScenario(*saveScen, rf.scale); err != nil {
			fmt.Fprintln(os.Stderr, "greenmatch:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "scenario template written to %s\n", *saveScen)
		return
	}

	var cfg core.Config
	var err error
	if *scenPath != "" {
		var scen scenario.Scenario
		if scen, err = scenario.Load(*scenPath); err == nil {
			scen.RecordSeries = scen.RecordSeries || *seriesPath != ""
			cfg, err = scen.Compile()
		}
	} else {
		cfg, err = buildConfig(rf, *seriesPath != "")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenmatch:", err)
		os.Exit(2)
	}
	res, err := core.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenmatch:", err)
		os.Exit(1)
	}
	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(res)
	case *csvOut:
		err = buildReport(res).WriteCSV(os.Stdout)
	default:
		err = buildReport(res).WriteText(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenmatch:", err)
		os.Exit(1)
	}
	if *seriesPath != "" {
		if err := writeSeries(res, *seriesPath); err != nil {
			fmt.Fprintln(os.Stderr, "greenmatch:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "series written to %s\n", *seriesPath)
	}
}

// runFlags are the flags that describe a run when no -scenario file is given.
type runFlags struct {
	policy, solver, profile, source, chemistry, forecaster string
	fraction, scale, area, batteryKWh, mtbf                float64
	nodes                                                  int
	seed                                                   int64
}

// reference loads scenarios/reference.json scaled by scale, which must
// pass scenario.CheckScale.
func reference(scale float64) (scenario.Scenario, error) {
	if err := scenario.CheckScale("-scale", scale); err != nil {
		return scenario.Scenario{}, err
	}
	sc, err := scenarios.Load("reference")
	if err != nil {
		return scenario.Scenario{}, err
	}
	return sc.Scaled(scale), nil
}

// saveScenario writes the reference scenario scaled by scale to path, as
// a template for -scenario.
func saveScenario(path string, scale float64) error {
	sc, err := reference(scale)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = sc.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// buildConfig compiles the flag-described run: scenarios/reference.json
// scaled by -scale, with -nodes, -area, -battery-kwh and -failure-mtbf as
// absolute overrides.
func buildConfig(f runFlags, recordSeries bool) (core.Config, error) {
	sc, err := reference(f.scale)
	if err != nil {
		return core.Config{}, err
	}
	sc.Seed = f.seed
	sc.Profile = f.profile
	sc.Chemistry = f.chemistry
	sc.Policy = f.policy
	sc.Fraction = f.fraction
	sc.Solver = f.solver
	sc.Forecaster = f.forecaster
	sc.FailureMTBFHours = f.mtbf
	sc.RecordSeries = recordSeries
	if f.nodes > 0 {
		sc.Nodes = f.nodes
	}
	if f.area > 0 {
		sc.AreaM2 = f.area
	}
	sc.BatteryKWh = f.batteryKWh
	cfg, err := sc.Compile()
	if err != nil {
		return core.Config{}, err
	}

	// Scenario "wind" is the raw farm; -source compares the sources at the
	// solar week's total energy instead.
	green, err := wind.EqualEnergy(f.source, cfg.Green.(solar.Series), f.seed)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Green = green
	return cfg, nil
}

func buildReport(res *core.Result) *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("GreenMatch run report — policy %s, %d slots simulated", res.Policy, res.Slots),
		Headers: []string{"metric", "value"},
	}
	e := res.Energy
	t.AddRow("demand (kWh)", e.Demand.KWh())
	t.AddRow("migration overhead (kWh)", e.MigrationOverhead.KWh())
	t.AddRow("transition overhead (kWh)", e.TransitionOverhead.KWh())
	t.AddRow("green produced (kWh)", e.GreenProduced.KWh())
	t.AddRow("green consumed directly (kWh)", e.GreenDirect.KWh())
	t.AddRow("battery out (kWh)", e.BatteryOut.KWh())
	t.AddRow("brown energy (kWh)", e.Brown.KWh())
	t.AddRow("green lost (kWh)", e.GreenLost.KWh())
	t.AddRow("battery losses (kWh)", (e.BatteryEffLoss + e.BatterySelfLoss).KWh())
	t.AddRow("green utilization", e.GreenUtilization())
	t.AddRow("brown fraction", e.BrownFraction())
	s := res.SLA
	t.AddRow("jobs submitted", s.Submitted)
	t.AddRow("jobs completed", s.Completed)
	t.AddRow("deadline misses", s.DeadlineMisses)
	t.AddRow("mean wait (slots)", s.MeanWaitSlots())
	t.AddRow("migrations", s.Migrations)
	t.AddRow("suspensions", s.Suspensions)
	t.AddRow("cold reads", s.ColdReads)
	t.AddRow("unserved reads", s.UnservedReads)
	t.AddRow("node-hours", res.NodeHours)
	t.AddRow("disk spun-hours", res.DiskSpunHours)
	t.AddRow("disk spin-downs", res.Disk.SpinDowns)
	t.AddRow("node boots", res.NodeBoots)
	t.AddRow("read latency p50 (ms)", res.ReadLatencyMs.P50)
	t.AddRow("read latency p99 (ms)", res.ReadLatencyMs.P99)
	t.AddRow("battery cycles", res.BatteryCycles)
	if res.SLA.NodeFailures > 0 {
		t.AddRow("node failures", res.SLA.NodeFailures)
		t.AddRow("evictions", res.SLA.Evictions)
		t.AddRow("repair jobs generated", res.SLA.RepairJobsGenerated)
	}
	return t
}

func writeSeries(res *core.Result, path string) error {
	if res.Series == nil {
		return fmt.Errorf("no series recorded")
	}
	t := &metrics.Table{Headers: []string{"slot", "demand_w", "green_w", "green_used_w",
		"battery_in_w", "battery_out_w", "brown_w", "green_lost_w", "soc", "nodes_on", "disks_spun", "jobs_running", "jobs_waiting"}}
	for _, s := range res.Series.Samples {
		t.AddRow(s.Slot, s.DemandW, s.GreenW, s.GreenUsedW, s.BatteryInW, s.BatteryOutW,
			s.BrownW, s.GreenLostW, s.BatterySoC, s.NodesOn, s.DisksSpun, s.JobsRunning, s.JobsWaiting)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		_ = f.Close()
		return err
	}
	// The close verdict is part of the write: a buffered-write failure can
	// surface only here, and a silently truncated series file poisons every
	// downstream plot.
	return f.Close()
}
