// Command greenmatch runs one GreenMatch simulation scenario from flags and
// prints the energy/SLA report as a text table (CSV with -csv, raw JSON
// with -json). Scenarios can also be loaded from JSON files (-scenario).
//
// Examples:
//
//	greenmatch -policy greenmatch -area 165.6 -battery-kwh 40
//	greenmatch -policy defer -fraction 0.5 -profile mixed -chemistry lead-acid
//	greenmatch -policy baseline -nodes 30 -scale 1.0 -series series.csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/solar"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/wind"
	"repro/internal/workload"
)

func main() {
	var (
		policyName = flag.String("policy", "greenmatch", "scheduling policy: baseline | spindown | defer | greenmatch | mixed | edf | kchoices | cucumber")
		fraction   = flag.Float64("fraction", 1.0, "defer fraction for defer/mixed policies (0..1]")
		solver     = flag.String("solver", "flow", "greenmatch matching solver: flow | greedy")
		scale      = flag.Float64("scale", 0.25, "workload scale factor (1.0 = reference week: 787 web + 3148 batch jobs)")
		nodes      = flag.Int("nodes", 0, "storage nodes (0 = scale the 30-node reference)")
		area       = flag.Float64("area", 0, "solar panel area in m^2 (0 = scale the 165.6 m^2 reference)")
		profile    = flag.String("profile", "sunny", "weather profile: sunny | mixed | overcast | winter")
		source     = flag.String("source", "solar", "renewable source: solar | wind | hybrid")
		batteryKWh = flag.Float64("battery-kwh", 0, "ESD nominal capacity in kWh (0 = no ESD)")
		chemistry  = flag.String("chemistry", "lithium-ion", "ESD chemistry: lithium-ion | lead-acid")
		forecaster = flag.String("forecast", "perfect", "forecaster: perfect | persistence | ma | ewma")
		seed       = flag.Int64("seed", 1, "random seed")
		csvOut     = flag.Bool("csv", false, "emit the report as CSV instead of text")
		jsonOut    = flag.Bool("json", false, "emit the raw result as JSON (machine-readable; includes the series when recorded)")
		seriesPath = flag.String("series", "", "write the per-slot time series CSV to this file")
		scenPath   = flag.String("scenario", "", "load the run from a JSON scenario file (overrides the other flags)")
		saveScen   = flag.String("save-scenario", "", "write the default scenario JSON to this file and exit")
		mtbf       = flag.Float64("failure-mtbf", 0, "node failure MTBF in hours (0 = no failures)")
	)
	flag.Parse()

	if *saveScen != "" {
		f, err := os.Create(*saveScen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greenmatch:", err)
			os.Exit(1)
		}
		err = scenario.Default().Write(f)
		cerr := f.Close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "greenmatch:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "scenario template written to %s\n", *saveScen)
		return
	}

	var cfg core.Config
	var err error
	if *scenPath != "" {
		f, ferr := os.Open(*scenPath)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "greenmatch:", ferr)
			os.Exit(2)
		}
		scen, serr := scenario.Read(f)
		_ = f.Close() // read-only handle
		if serr != nil {
			fmt.Fprintln(os.Stderr, "greenmatch:", serr)
			os.Exit(2)
		}
		scen.RecordSeries = scen.RecordSeries || *seriesPath != ""
		cfg, err = scen.Compile()
	} else {
		cfg, err = buildConfig(*policyName, *fraction, *solver, *scale, *nodes, *area,
			*profile, *source, *batteryKWh, *chemistry, *forecaster, *seed, *seriesPath != "")
		if err == nil && *mtbf > 0 {
			cfg.Faults.CrashMTBFHours = *mtbf
		}
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

func buildConfig(policyName string, fraction float64, solver string, scale float64,
	nodes int, area float64, profile, source string, batteryKWh float64,
	chemistry, forecaster string, seed int64, recordSeries bool) (core.Config, error) {

	cfg := core.DefaultParams()
	cfg.Seed = seed
	cfg.RecordSeries = recordSeries

	// Cluster.
	cl := storage.DefaultConfig()
	if nodes > 0 {
		cl.Nodes = nodes
	} else {
		cl.Nodes = maxInt(4, int(30*scale+0.5))
	}
	cl.Objects = maxInt(100, int(3000*scale+0.5))
	cfg.Cluster = cl
	cfg.ReadsPerSlot = 200 * scale

	// Workload.
	gen := workload.Scaled(scale)
	gen.Seed = seed
	tr, err := workload.Generate(gen)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Trace = tr

	// Renewable supply.
	if area <= 0 {
		area = 165.6 * scale
	}
	scfg := solar.DefaultFarm(area)
	scfg.Profile = solar.Profile(profile)
	scfg.Slots = 24 * 21
	scfg.Seed = seed
	sol, err := solar.Generate(scfg)
	if err != nil {
		return core.Config{}, err
	}
	switch source {
	case "solar":
		cfg.Green = sol
	case "wind", "hybrid":
		wcfg := wind.DefaultFarm()
		wcfg.Slots = scfg.Slots
		wcfg.Seed = seed
		w, err := wind.Generate(wcfg)
		if err != nil {
			return core.Config{}, err
		}
		// Match the solar trace's total energy so sources are comparable.
		if tot := w.TotalEnergy(1); tot > 0 {
			w = w.Scale(sol.TotalEnergy(1).Wh() / tot.Wh())
		}
		if source == "wind" {
			cfg.Green = w
		} else {
			cfg.Green = wind.Hybrid(sol.Scale(0.5), w.Scale(0.5))
		}
	default:
		return core.Config{}, fmt.Errorf("unknown source %q", source)
	}

	// ESD.
	spec, err := battery.SpecFor(battery.Chemistry(chemistry))
	if err != nil {
		return core.Config{}, err
	}
	cfg.BatterySpec = spec
	cfg.BatteryCapacityWh = units.Energy(batteryKWh * 1000)

	// Forecaster.
	switch forecaster {
	case "perfect":
		cfg.Forecaster = forecast.Perfect{}
	case "persistence":
		cfg.Forecaster = forecast.Persistence{}
	case "ma":
		cfg.Forecaster = forecast.MovingAverage{}
	case "ewma":
		cfg.Forecaster = forecast.EWMA{}
	default:
		return core.Config{}, fmt.Errorf("unknown forecaster %q", forecaster)
	}

	// Policy.
	cfg.Policy, err = scenario.PolicyFor(policyName, fraction, solver, 0, 0)
	if err != nil {
		return core.Config{}, err
	}
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
