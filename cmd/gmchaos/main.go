// Command gmchaos is the fault-injection chaos harness: it runs many
// seeded random fault schedules — crash storms, supply dropouts and
// curtailment, battery fade and charger outages, forecast corruption —
// against the simulator. By default every seed runs the built-in 8-node,
// battery-equipped GreenMatch scenario on that seed's workload and sun
// (-scenario and -policy replace it); the internal/core TestChaos property
// test is a separate harness that cycles the whole policy arena. Each run
// has the energy-conservation auditor attached and executes twice — once
// with the event-driven slot-skipping fast path, once forcing the full
// per-slot pipeline — to prove byte-determinism of the full slot trace AND
// bit-exactness of slot skipping under every fault schedule. Any
// conservation violation, determinism mismatch or degraded-mode accounting
// inconsistency makes the command exit non-zero, printing one line per
// offending seed, in seed order, so the failure is reproducible from the
// seed alone.
//
// Examples:
//
//	gmchaos                          # 200 seeds against the built-in scenario
//	gmchaos -runs 1000 -seed 5000 -j 8
//	gmchaos -scenario scenarios/grid-brownout.json -runs 50
//	gmchaos -policy cucumber         # chaos the probabilistic-admission policy
//	gmchaos -v                       # one summary line per seed
//
// With -serve the harness goes live: each seed starts a real gmserve
// daemon, replays the same seed's run over HTTP, SIGKILLs the daemon
// mid-replay, restarts it against the same state directory, finishes the
// run and asserts the recovered audit trace and Result are byte-identical
// to a local batch simulation:
//
//	gmchaos -serve -runs 3                       # gmserve found on PATH
//	gmchaos -serve -gmserve bin/gmserve -runs 3 -v
//
// Fault schedules round-trip through JSON for inspection and exact replay:
//
//	gmchaos -dump-schedule storm.json -seed 42   # write seed 42's schedule
//	gmchaos -schedule storm.json -runs 20        # replay it under 20 seeds
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/scenario"
)

func main() {
	var (
		runs     = flag.Int("runs", 200, "number of seeded chaos runs")
		baseSeed = flag.Int64("seed", 1000, "first seed; run i uses seed+i")
		workers  = flag.Int("j", 0, "parallel workers (0 = one per core)")
		verbose  = flag.Bool("v", false, "print one line per seed")
		dumpFile = flag.String("dump-schedule", "", "write the generated fault schedule for -seed to this file and exit")
		schedule = flag.String("schedule", "", "replay this fault-schedule JSON (see -dump-schedule) instead of generating one per seed")
		serve    = flag.Bool("serve", false, "live mode: run each seed against a real gmserve daemon over HTTP with a SIGKILL and recovery mid-replay")
		gmserve  = flag.String("gmserve", "gmserve", "path to the gmserve binary used by -serve")
		sp       runSpec
	)
	flag.Float64Var(&sp.scale, "scale", 0.08, "workload scale of the built-in scenario")
	flag.IntVar(&sp.slots, "slots", 200, "fault-schedule horizon in slots")
	flag.StringVar(&sp.scenFile, "scenario", "", "base the runs on this scenario JSON instead of the built-in scenario")
	flag.StringVar(&sp.policy, "policy", "", "override the scheduling policy (baseline, spindown, defer, greenmatch, mixed, edf, kchoices, cucumber)")
	flag.Parse()

	if *schedule != "" {
		f, err := os.Open(*schedule)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gmchaos: %v\n", err)
			os.Exit(1)
		}
		c, err := fault.ReadSchedule(f, 0)
		_ = f.Close() // read-only handle
		if err != nil {
			fmt.Fprintf(os.Stderr, "gmchaos: %v\n", err)
			os.Exit(1)
		}
		sp.sched = &c
	}

	if *dumpFile != "" {
		if err := dumpSchedule(*dumpFile, *baseSeed, sp); err != nil {
			fmt.Fprintf(os.Stderr, "gmchaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("gmchaos: wrote fault schedule for seed %d to %s\n", *baseSeed, *dumpFile)
		return
	}

	if *serve {
		var failed int
		for i := 0; i < *runs; i++ {
			seed := *baseSeed + int64(i)
			if err := serveSeed(seed, *gmserve, sp, *verbose); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "gmchaos: seed %d: %v\n", seed, err)
			} else if *verbose {
				fmt.Printf("seed %d: live recovery ok\n", seed)
			}
		}
		fmt.Printf("gmchaos -serve: %d runs, %d clean, %d failed\n", *runs, *runs-failed, failed)
		if failed > 0 {
			os.Exit(1)
		}
		return
	}

	var failed, degraded, crashes int
	for i, o := range chaosSweep(*baseSeed, *runs, *workers, sp) {
		seed := *baseSeed + int64(i)
		if o.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "gmchaos: seed %d: %v\n", seed, o.Err)
			continue
		}
		res := o.Value.(*core.Result)
		crashes += res.SLA.NodeFailures
		if res.Degrade.DegradedSlots > 0 {
			degraded++
		}
		if *verbose {
			fmt.Printf("seed %d: ok (degraded slots %d, crashes %d)\n", seed, res.Degrade.DegradedSlots, res.SLA.NodeFailures)
		}
	}
	fmt.Printf("gmchaos: %d runs, %d clean, %d failed; %d runs hit degraded mode, %d node crashes total\n",
		*runs, *runs-failed, failed, degraded, crashes)
	if failed > 0 {
		os.Exit(1)
	}
}

// runSpec is what every seed of one invocation shares.
type runSpec struct {
	scenFile string        // -scenario; "" runs the built-in scenario
	policy   string        // -policy; "" keeps the scenario's
	scale    float64       // workload scale of the built-in scenario
	slots    int           // horizon of a generated fault schedule
	sched    *fault.Config // -schedule; nil generates one per seed when needed
}

// chaosScenario builds and compiles the run one seed executes, in batch
// and -serve mode alike: the scenario file if given, otherwise the
// built-in 8-node GreenMatch cluster. A -schedule replaces the scenario's
// faults, legacy crash process included. Without one, a run whose
// scenario declares no fault process gets a schedule generated from the
// seed; a scenario that has one keeps it. The faults are part of the
// returned scenario, so the -serve daemon compiles them in rather than
// having them injected mid-run, which would change its trace against the
// batch reference.
func chaosScenario(seed int64, sp runSpec) (scenario.Scenario, core.Config, error) {
	sc := scenario.Scenario{
		Name:          "chaos",
		Nodes:         8,
		Objects:       400,
		WorkloadScale: sp.scale,
		AreaM2:        40,
		BatteryKWh:    10,
		Policy:        "greenmatch",
		ReadsPerSlot:  50,
	}
	if sp.scenFile != "" {
		var err error
		if sc, err = scenario.Load(sp.scenFile); err != nil {
			return scenario.Scenario{}, core.Config{}, err
		}
	}
	sc.Seed = seed
	if sp.policy != "" {
		sc.Policy = sp.policy
	}
	if sp.sched != nil {
		sc.Faults, sc.FailureMTBFHours, sc.NodeRepairSlots = sp.sched, 0, 0
	}
	cfg, err := sc.Compile()
	if err != nil || sp.sched != nil || cfg.Faults.Enabled() {
		return sc, cfg, err
	}
	fc := fault.Generate(seed, fault.GenSpec{Slots: sp.slots, Nodes: cfg.Cluster.TotalNodes(), AllowMTBF: true})
	sc.Faults = &fc
	cfg, err = sc.Compile()
	return sc, cfg, err
}

// chaosSweep runs seeds base, base+1, ... base+runs-1 through chaosSeed on
// the sweep runner: outcomes come back in seed order, each holding the
// seed's *core.Result or its error, and a panicking seed becomes that
// seed's error instead of ending the process.
func chaosSweep(base int64, runs, workers int, sp runSpec) []runner.Outcome {
	jobs := make([]runner.Job, runs)
	for i := range jobs {
		seed := base + int64(i)
		jobs[i] = runner.Job{Label: fmt.Sprintf("seed %d", seed), Run: func() (any, error) {
			return chaosSeed(seed, sp)
		}}
	}
	return runner.Sweep(jobs, runner.Options{Workers: workers})
}

// chaosSeed executes one seed twice — audited, traced — and returns the
// first run's result, or an error describing the violation. The first run
// uses the simulator's event-driven slot skipping, the second forces the
// full per-slot pipeline, so every seed doubles as a skip-equivalence
// proof over a random fault schedule.
func chaosSeed(seed int64, sp runSpec) (*core.Result, error) {
	_, cfg, err := chaosScenario(seed, sp)
	if err != nil {
		return nil, err
	}

	res1, sum1, err := auditedRun(cfg)
	if err != nil {
		return nil, err
	}
	cfg.DisableSlotSkipping = true
	res2, sum2, err := auditedRun(cfg)
	if err != nil {
		return res1, err
	}
	if sum1 != sum2 {
		return res1, fmt.Errorf("slot traces differ between skip and full-pipeline runs (%x vs %x)", sum1[:6], sum2[:6])
	}
	if res1.Slots != res2.Slots || res1.Energy != res2.Energy || res1.SLA != res2.SLA {
		return res1, fmt.Errorf("results differ between skip and full-pipeline runs")
	}
	fired := cfg.Faults.ActiveWithin(res1.Slots) || res1.SLA.NodeFailures > 0
	if fired != (res1.Degrade.DegradedSlots > 0) {
		return res1, fmt.Errorf("faults fired=%v but degraded slots=%d", fired, res1.Degrade.DegradedSlots)
	}
	return res1, nil
}

// auditedRun runs the config with the conservation auditor attached and
// returns the result plus a digest of the full JSONL slot trace.
func auditedRun(cfg core.Config) (*core.Result, [32]byte, error) {
	auditor := audit.NewAuditor()
	h := sha256.New()
	cfg.Observer = audit.Tee(auditor, audit.NewJSONL(h))
	res, err := core.Run(cfg)
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	if err != nil {
		return nil, sum, fmt.Errorf("run failed (%d audit violations): %w", auditor.ViolationCount(), err)
	}
	if n := auditor.ViolationCount(); n != 0 {
		return res, sum, fmt.Errorf("%d conservation violations: %v", n, auditor.Violations()[0])
	}
	return res, sum, nil
}

// dumpSchedule writes the fault schedule a seed runs under as JSON — the
// exact schedule, inspectable and replayable with -schedule.
func dumpSchedule(path string, seed int64, sp runSpec) error {
	_, cfg, err := chaosScenario(seed, sp)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fault.WriteSchedule(f, cfg.Faults); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
