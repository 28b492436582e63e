// Command gmtrace generates and inspects the simulator's traces: synthetic
// workload weeks and solar/wind production series as round-trippable CSV,
// and — with `-kind run` — the per-slot energy-flow audit trace of a full
// simulation run, in JSONL, CSV or Prometheus-style text, optionally
// checked by the energy-conservation auditor.
//
// Examples:
//
//	gmtrace -kind workload -scale 1.0 -out week.csv
//	gmtrace -kind solar -area 165.6 -profile mixed -slots 336 -out solar.csv
//	gmtrace -kind wind -turbines 2 -out wind.csv
//	gmtrace -kind workload -stats            # print population statistics
//	gmtrace -kind run -scenario scenarios/reference.json -scale 0.25 -audit -out trace.jsonl
//	gmtrace -kind run -scale 0.25 -format csv -slots 48  # embedded reference, first 48 slots
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/solar"
	"repro/internal/wind"
	"repro/internal/workload"
	"repro/scenarios"
)

// main wraps realMain so every exit path — errors included — flushes and
// closes the output file before the process exits (os.Exit skips defers,
// so realMain concentrates the teardown instead).
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		kind     = flag.String("kind", "workload", "trace kind: workload | solar | wind | run")
		in       = flag.String("in", "", "analyze an existing CSV trace instead of generating one (use with -stats)")
		out      = flag.String("out", "", "output file (default stdout)")
		stats    = flag.Bool("stats", false, "print summary statistics instead of the CSV")
		seed     = flag.Int64("seed", 1, "random seed")
		scale    = flag.Float64("scale", 1.0, "workload scale factor; for -kind run, scales the whole scenario")
		area     = flag.Float64("area", 165.6, "solar panel area m^2")
		profile  = flag.String("profile", "sunny", "solar weather profile")
		slots    = flag.Int("slots", 168, "trace length in slots; for -kind run, cap on emitted slot traces")
		turbines = flag.Int("turbines", 1, "wind turbine count")
		scenFile = flag.String("scenario", "", "scenario JSON for -kind run (default: the embedded scenarios/reference.json)")
		doAudit  = flag.Bool("audit", false, "for -kind run: check energy-conservation invariants, fail on violation")
		format   = flag.String("format", "jsonl", "for -kind run: trace format jsonl | csv | prom")
	)
	flag.Parse()
	if err := scenario.CheckScale("-scale", *scale); err != nil {
		fmt.Fprintln(os.Stderr, "gmtrace:", err)
		return 2
	}

	var w io.Writer = os.Stdout
	var closeOut func() error
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmtrace:", err)
			return 1
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		w = bw
		closeOut = func() error {
			if err := bw.Flush(); err != nil {
				_ = f.Close()
				return err
			}
			return f.Close()
		}
	}

	err := func() error {
		switch *kind {
		case "workload":
			var tr workload.Trace
			if *in != "" {
				f, err := os.Open(*in)
				if err != nil {
					return err
				}
				tr, err = workload.ReadCSV(f)
				_ = f.Close() // read-only handle
				if err != nil {
					return err
				}
			} else {
				cfg := workload.Scaled(*scale)
				cfg.Seed = *seed
				cfg.Slots = *slots
				var err error
				tr, err = workload.Generate(cfg)
				if err != nil {
					return err
				}
			}
			if *stats {
				st := workload.ComputeStats(tr)
				fmt.Fprintf(w, "jobs: %d  horizon: %d slots  peak concurrency: %d\n",
					len(tr), st.Horizon, tr.PeakConcurrency())
				for _, c := range []workload.Class{workload.Web, workload.Batch, workload.Scrub, workload.Backup, workload.Repair} {
					fmt.Fprintf(w, "  %-7s count=%-5d cpu-hours=%.0f\n", c, st.Count[c], st.CPUHours[c])
				}
				fmt.Fprintf(w, "arrivals by hour of day:\n ")
				hist := tr.ArrivalHistogram()
				for h, n := range hist {
					fmt.Fprintf(w, " %02d:%-4d", h, n)
					if h%8 == 7 {
						fmt.Fprintf(w, "\n ")
					}
				}
				fmt.Fprintln(w)
				fmt.Fprintf(w, "deferrable slack histogram (slots):\n")
				sh := tr.SlackHistogram()
				for _, bucket := range []string{"0", "1-4", "5-12", "13-24", "25+"} {
					fmt.Fprintf(w, "  %-6s %d\n", bucket, sh[bucket])
				}
				return nil
			}
			return tr.WriteCSV(w)
		case "solar":
			cfg := solar.DefaultFarm(*area)
			cfg.Profile = solar.Profile(*profile)
			cfg.Slots = *slots
			cfg.Seed = *seed
			s, err := solar.Generate(cfg)
			if err != nil {
				return err
			}
			if *stats {
				fmt.Fprintf(w, "slots: %d  peak: %v  total: %v\n", s.Slots(), s.Peak(), s.TotalEnergy())
				return nil
			}
			return s.WriteCSV(w)
		case "wind":
			cfg := wind.DefaultFarm()
			cfg.Count = *turbines
			cfg.Slots = *slots
			cfg.Seed = *seed
			s, err := wind.Generate(cfg)
			if err != nil {
				return err
			}
			if *stats {
				fmt.Fprintf(w, "slots: %d  peak: %v  total: %v\n", s.Slots(), s.Peak(), s.TotalEnergy())
				return nil
			}
			return s.WriteCSV(w)
		case "run":
			slotCap := 0 // 0 = every slot; honour -slots only when given explicitly
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "slots" {
					slotCap = *slots
				}
			})
			return runScenario(w, *scenFile, *scale, *format, *doAudit, slotCap)
		default:
			return fmt.Errorf("unknown kind %q", *kind)
		}
	}()

	// Flush and close the output file on every path: a failed run's partial
	// trace must still be complete, well-formed lines on disk.
	if closeOut != nil {
		if cerr := closeOut(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmtrace:", err)
		return 1
	}
	return 0
}

// runScenario simulates the scenario file scenFile (the embedded reference
// when empty) scaled by scale and streams its audit trace to w. The sink
// is closed on every path — including a failed or violating run — so the
// partial trace is still complete lines.
func runScenario(w io.Writer, scenFile string, scale float64, format string, doAudit bool, slotCap int) error {
	var sc scenario.Scenario
	var err error
	if scenFile == "" {
		sc, err = scenarios.Load("reference")
	} else {
		sc, err = scenario.Load(scenFile)
	}
	if err != nil {
		return err
	}
	sc = sc.Scaled(scale)
	cfg, err := sc.Compile()
	if err != nil {
		return err
	}

	var sink audit.Observer
	switch format {
	case "jsonl":
		sink = audit.NewJSONL(w)
	case "csv":
		sink = audit.NewCSV(w)
	case "prom":
		sink = audit.NewProm(w)
	default:
		return fmt.Errorf("unknown trace format %q", format)
	}
	if slotCap > 0 {
		sink = audit.Limit(slotCap, sink)
	}
	var auditor *audit.Auditor
	obs := sink
	if doAudit {
		auditor = audit.NewAuditor() // sees every slot, uncapped
		obs = audit.Tee(auditor, sink)
	}
	cfg.Observer = audit.Labeled(sc.Name, obs)

	res, err := core.Run(cfg)
	if cerr := audit.Close(sink); err == nil {
		err = cerr
	}
	if auditor != nil {
		for _, v := range auditor.Violations() {
			fmt.Fprintln(os.Stderr, "gmtrace: VIOLATION:", v)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gmtrace: run %q (%s): %d slots, brown %.2f kWh, green utilization %.1f%%\n",
		sc.Name, res.Policy, res.Slots, res.Energy.Brown.KWh(), 100*res.Energy.GreenUtilization())
	if auditor != nil {
		fmt.Fprintf(os.Stderr, "gmtrace: audit: %d slots checked, 0 violations\n", res.Slots)
	}
	return nil
}
