// Command gmchaos is the fault-injection chaos harness: it runs many
// seeded random fault schedules — crash storms, supply dropouts and
// curtailment, battery fade and charger outages, forecast corruption —
// against the simulator, each run with the energy-conservation auditor
// attached and executed twice — once with the event-driven slot-skipping
// fast path, once forcing the full per-slot pipeline — to prove
// byte-determinism of the full slot trace AND bit-exactness of slot
// skipping under every fault schedule (-noskip forces the full pipeline in
// both runs). Any conservation violation, determinism mismatch or degraded-mode
// accounting inconsistency makes the command exit non-zero, printing one
// line per offending seed so the failure is reproducible from the seed
// alone.
//
// Examples:
//
//	gmchaos                          # 200 seeds against the built-in small scenario
//	gmchaos -runs 1000 -seed 5000 -j 8
//	gmchaos -scenario scenarios/grid-brownout.json -runs 50
//	gmchaos -policy cucumber         # chaos the probabilistic-admission policy
//	gmchaos -v                       # one summary line per seed
//
// With -serve the harness goes live: each seed starts a real gmserve
// daemon, replays the chaos workload over HTTP, SIGKILLs the daemon
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
	"runtime"
	"sync"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	var (
		runs     = flag.Int("runs", 200, "number of seeded chaos runs")
		baseSeed = flag.Int64("seed", 1000, "first seed; run i uses seed+i")
		scale    = flag.Float64("scale", 0.08, "workload scale of the built-in scenario")
		slots    = flag.Int("slots", 200, "fault-schedule horizon in slots")
		jobs     = flag.Int("j", 0, "parallel workers (0 = one per core)")
		scenFile = flag.String("scenario", "", "base the runs on this scenario JSON instead of the built-in small scenario")
		policy   = flag.String("policy", "", "override the scheduling policy (baseline, spindown, defer, greenmatch, mixed, edf, kchoices, cucumber)")
		noSkip   = flag.Bool("noskip", false, "disable the simulator's event-driven slot skipping in both runs (plain determinism check instead of skip-equivalence)")
		verbose  = flag.Bool("v", false, "print one line per seed")
		dumpFile = flag.String("dump-schedule", "", "write the generated fault schedule for -seed to this file and exit")
		schedule = flag.String("schedule", "", "replay this fault-schedule JSON (see -dump-schedule) instead of generating one per seed")
		serve    = flag.Bool("serve", false, "live mode: run each seed against a real gmserve daemon over HTTP with a SIGKILL and recovery mid-replay")
		gmserve  = flag.String("gmserve", "gmserve", "path to the gmserve binary used by -serve")
	)
	flag.Parse()

	var sched *fault.Config
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
		sched = &c
	}

	if *dumpFile != "" {
		if err := dumpSchedule(*dumpFile, *baseSeed, *scenFile, *scale, *slots); err != nil {
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
			if err := serveSeed(seed, *gmserve, *scenFile, *policy, *scale, *slots, sched, *verbose); err != nil {
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

	workers := *jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	type outcome struct {
		seed   int64
		err    error
		faults int // degraded slots
		crash  int
	}
	seeds := make(chan int64)
	results := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				res, err := chaosSeed(seed, *scenFile, *policy, *scale, *slots, *noSkip, sched)
				o := outcome{seed: seed, err: err}
				if res != nil {
					o.faults = res.Degrade.DegradedSlots
					o.crash = res.SLA.NodeFailures
				}
				results <- o
			}
		}()
	}
	go func() {
		for i := 0; i < *runs; i++ {
			seeds <- *baseSeed + int64(i)
		}
		close(seeds)
		wg.Wait()
		close(results)
	}()

	var done, failed, degraded, crashes int
	for o := range results {
		done++
		if o.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "gmchaos: seed %d: %v\n", o.seed, o.err)
			continue
		}
		crashes += o.crash
		if o.faults > 0 {
			degraded++
		}
		if *verbose {
			fmt.Printf("seed %d: ok (degraded slots %d, crashes %d)\n", o.seed, o.faults, o.crash)
		}
	}
	fmt.Printf("gmchaos: %d runs, %d clean, %d failed; %d runs hit degraded mode, %d node crashes total\n",
		done, done-failed, failed, degraded, crashes)
	if failed > 0 {
		os.Exit(1)
	}
}

// chaosSeed executes one seed twice — audited, traced — and returns the
// first run's result, or an error describing the violation. The first run
// uses the simulator's event-driven slot skipping, the second forces the
// full per-slot pipeline, so every seed doubles as a skip-equivalence
// proof over a random fault schedule; with noSkip both runs take the full
// pipeline and the comparison degrades to a plain determinism check.
func chaosSeed(seed int64, scenFile, policy string, scale float64, slots int, noSkip bool, sched *fault.Config) (*core.Result, error) {
	cfg, err := baseConfig(seed, scenFile, scale)
	if err != nil {
		return nil, err
	}
	if policy != "" {
		pol, err := scenario.PolicyFor(policy, 0, "", 0, 0)
		if err != nil {
			return nil, err
		}
		cfg.Policy = pol
	}
	if sched != nil {
		if err := sched.Validate(cfg.Cluster.TotalNodes()); err != nil {
			return nil, err
		}
		cfg.Faults = *sched
	} else if !cfg.Faults.Enabled() {
		cfg.Faults = fault.Generate(seed, fault.GenSpec{
			Slots:     slots,
			Nodes:     cfg.Cluster.TotalNodes(),
			AllowMTBF: true,
		})
	}
	cfg.DisableSlotSkipping = noSkip

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

// dumpSchedule generates the fault schedule a seed would run under and
// writes it as JSON — the exact schedule, inspectable and replayable with
// -schedule.
func dumpSchedule(path string, seed int64, scenFile string, scale float64, slots int) error {
	cfg, err := baseConfig(seed, scenFile, scale)
	if err != nil {
		return err
	}
	sched := cfg.Faults
	if !sched.Enabled() {
		sched = fault.Generate(seed, fault.GenSpec{
			Slots:     slots,
			Nodes:     cfg.Cluster.TotalNodes(),
			AllowMTBF: true,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fault.WriteSchedule(f, sched); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// baseConfig builds the per-seed scenario: the given scenario file, or the
// built-in small battery-equipped cluster the chaos harness defaults to.
func baseConfig(seed int64, scenFile string, scale float64) (core.Config, error) {
	if scenFile != "" {
		f, err := os.Open(scenFile)
		if err != nil {
			return core.Config{}, err
		}
		sc, err := scenario.Read(f)
		_ = f.Close() // read-only handle
		if err != nil {
			return core.Config{}, err
		}
		sc.Seed = seed
		return sc.Compile()
	}
	cfg := core.DefaultParams()
	cl := storage.DefaultConfig()
	cl.Nodes = 8
	cl.Objects = 400
	cfg.Cluster = cl
	gen := workload.Scaled(scale)
	gen.Seed = seed
	tr, err := workload.Generate(gen)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Trace = tr
	cfg.Green = core.DefaultGreen(40)
	cfg.BatteryCapacityWh = 10 * units.KilowattHour
	cfg.ReadsPerSlot = 50
	cfg.Seed = seed
	return cfg.ApplyDefaults(), nil
}
