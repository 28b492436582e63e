package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/battery"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workload"
)

// smallConfig returns a fast, fully deterministic scenario: 8 nodes,
// half-scale trace, modest panels.
func smallConfig(t testing.TB) Config {
	cfg := referenceConfig(t)
	cl := storage.DefaultConfig()
	cl.Nodes = 8
	cl.Objects = 400
	cfg.Cluster = cl
	cfg.Trace = genTrace(t, workload.Scaled(0.15))
	cfg.Green = referenceSupply(t, 40)
	cfg.ReadsPerSlot = 50
	return cfg
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunBaselineCompletesAllJobs(t *testing.T) {
	cfg := smallConfig(t)
	res := run(t, cfg)
	if res.SLA.Completed != len(cfg.Trace) {
		t.Fatalf("completed %d of %d jobs", res.SLA.Completed, len(cfg.Trace))
	}
	if res.SLA.DeadlineMisses != 0 {
		t.Fatalf("baseline on an underloaded cluster missed %d deadlines", res.SLA.DeadlineMisses)
	}
	if res.Energy.Brown <= 0 {
		t.Fatal("no battery and small panels: brown energy must be positive")
	}
}

func TestEnergyConservationAcrossPolicies(t *testing.T) {
	policies := []sched.Policy{
		sched.Baseline{},
		sched.SpinDown{},
		sched.DeferFraction{Fraction: 1},
		sched.DeferFraction{Fraction: 0.5},
		sched.GreenMatch{},
		sched.GreenMatch{Fraction: 0.5},
		sched.GreenMatch{Solver: sched.SolverGreedy},
	}
	for _, p := range policies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			cfg := smallConfig(t)
			cfg.Policy = p
			cfg.BatteryCapacityWh = 20 * units.KilowattHour
			res := run(t, cfg) // Run() already asserts conservation; double-check here
			tol := 1e-6 * (1 + float64(res.Energy.TotalLoad()))
			if err := res.Energy.ConservationError(); err > tol {
				t.Fatalf("conservation error %v Wh", err)
			}
			if res.SLA.Completed != len(cfg.Trace) {
				t.Fatalf("%s completed %d/%d", p.Name(), res.SLA.Completed, len(cfg.Trace))
			}
		})
	}
}

func TestNoDeadlineMissesUnderDeferralPolicies(t *testing.T) {
	for _, p := range []sched.Policy{sched.DeferFraction{Fraction: 1}, sched.GreenMatch{}} {
		cfg := smallConfig(t)
		cfg.Policy = p
		res := run(t, cfg)
		if res.SLA.DeadlineMisses != 0 {
			t.Errorf("%s missed %d deadlines on a feasible workload", p.Name(), res.SLA.DeadlineMisses)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Policy = sched.GreenMatch{}
	cfg.BatteryCapacityWh = 10 * units.KilowattHour
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Energy != b.Energy {
		t.Fatalf("energy accounts differ across identical runs:\n%+v\n%+v", a.Energy, b.Energy)
	}
	if a.SLA != b.SLA {
		t.Fatalf("SLA accounts differ:\n%+v\n%+v", a.SLA, b.SLA)
	}
}

func TestBatteryReducesBrown(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Green = referenceSupply(t, 120) // ample midday surplus
	noBat := run(t, cfg)

	cfg.BatteryCapacityWh = 50 * units.KilowattHour
	withBat := run(t, cfg)
	if withBat.Energy.Brown >= noBat.Energy.Brown {
		t.Fatalf("battery did not reduce brown: %v -> %v", noBat.Energy.Brown, withBat.Energy.Brown)
	}
	if withBat.Battery.Out <= 0 {
		t.Fatal("battery never discharged")
	}
	if withBat.Energy.GreenLost >= noBat.Energy.GreenLost {
		t.Fatal("battery did not reduce green losses")
	}
}

func TestInfiniteBatteryAbsorbsAllSurplus(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Green = referenceSupply(t, 120)
	cfg.InfiniteBattery = true
	res := run(t, cfg)
	if res.Energy.GreenLost > 1e-6 {
		t.Fatalf("infinite battery lost %v of green energy", res.Energy.GreenLost)
	}
}

func TestGreenMatchBeatsBaselineWithoutBattery(t *testing.T) {
	// The headline claim: with no ESD, shifting deferrable work into the
	// solar window consumes less brown energy than running ASAP.
	base := smallConfig(t)
	base.Policy = sched.Baseline{}
	baseline := run(t, base)

	gm := smallConfig(t)
	gm.Policy = sched.GreenMatch{}
	green := run(t, gm)

	if green.Energy.Brown >= baseline.Energy.Brown {
		t.Fatalf("greenmatch brown %v not below baseline %v",
			green.Energy.Brown, baseline.Energy.Brown)
	}
	// Compare absolute green energy consumed rather than the utilization
	// ratio: deferral legitimately extends the run into extra sunny slots,
	// which inflates the ratio's denominator.
	if green.Energy.GreenDirect+green.Energy.BatteryOut <= baseline.Energy.GreenDirect+baseline.Energy.BatteryOut {
		t.Fatalf("greenmatch green consumption %v not above baseline %v",
			green.Energy.GreenDirect+green.Energy.BatteryOut,
			baseline.Energy.GreenDirect+baseline.Energy.BatteryOut)
	}
}

func TestSpinDownReducesDemand(t *testing.T) {
	base := smallConfig(t)
	baseline := run(t, base)

	sd := smallConfig(t)
	sd.Policy = sched.SpinDown{}
	spin := run(t, sd)

	if spin.Energy.Demand >= baseline.Energy.Demand {
		t.Fatalf("spin-down demand %v not below baseline %v", spin.Energy.Demand, baseline.Energy.Demand)
	}
	if spin.Disk.SpinDowns == 0 {
		t.Fatal("spin-down policy never parked a disk")
	}
	if spin.SLA.UnservedReads != 0 {
		t.Fatalf("coverage constraint violated: %d unserved reads", spin.SLA.UnservedReads)
	}
}

func TestConsolidationCausesMigrations(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Policy = sched.GreenMatch{}
	res := run(t, cfg)
	if res.SLA.Migrations == 0 {
		t.Fatal("consolidating policy produced zero migrations")
	}
	// MigrationOverhead is the VM-management energy: migrations plus
	// suspend/resume.
	want := units.Energy(res.SLA.Migrations)*migrationCostWh +
		units.Energy(res.SLA.Suspensions)*suspendCostWh
	if res.Energy.MigrationOverhead != want {
		t.Fatalf("management overhead %v, want %v (%d migrations, %d suspensions)",
			res.Energy.MigrationOverhead, want, res.SLA.Migrations, res.SLA.Suspensions)
	}
	baseline := run(t, smallConfig(t))
	if baseline.SLA.Migrations != 0 {
		t.Fatalf("baseline migrated %d times; it must not consolidate", baseline.SLA.Migrations)
	}
}

func TestSeriesRecording(t *testing.T) {
	cfg := smallConfig(t)
	cfg.RecordSeries = true
	res := run(t, cfg)
	if res.Series == nil || len(res.Series.Samples) != res.Slots {
		t.Fatalf("series missing or wrong length")
	}
	// Settlement identity per slot: demand = greenUsed + batteryOut + brown.
	for _, s := range res.Series.Samples {
		lhs := s.DemandW
		rhs := s.GreenUsedW + s.BatteryOutW + s.BrownW
		if math.Abs(lhs-rhs) > 1e-6*(1+lhs) {
			t.Fatalf("slot %d settlement broken: %v vs %v", s.Slot, lhs, rhs)
		}
		if s.GreenUsedW > s.GreenW+1e-9 {
			t.Fatalf("slot %d used more green than produced", s.Slot)
		}
	}
	// Default config must not record.
	cfg.RecordSeries = false
	if res2 := run(t, cfg); res2.Series != nil {
		t.Fatal("series recorded without RecordSeries")
	}
}

func TestWaitingAccounting(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Policy = sched.GreenMatch{}
	res := run(t, cfg)
	if res.SLA.TotalWaitSlots == 0 {
		t.Fatal("greenmatch should delay some jobs")
	}
	base := run(t, smallConfig(t))
	if base.SLA.TotalWaitSlots != 0 {
		t.Fatalf("baseline should not delay jobs on an underloaded cluster, waited %d", base.SLA.TotalWaitSlots)
	}
}

func TestValidationErrors(t *testing.T) {
	mut := func(f func(*Config)) Config {
		c := smallConfig(t)
		f(&c)
		return c
	}
	bad := []Config{
		mut(func(c *Config) { c.SlotHours = -1 }),
		mut(func(c *Config) { c.Green = nil }),
		mut(func(c *Config) { c.Policy = nil }),
		mut(func(c *Config) { c.BatteryCapacityWh = -5 }),
		mut(func(c *Config) { c.Overcommit = 0.5 }),
		mut(func(c *Config) { c.ReadsPerSlot = -1 }),
		mut(func(c *Config) { c.Cluster.Nodes = 0 }),
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestValidationRejectsNaNAndInf pins the non-finite values a plain
// "< 0" check lets through. Each used to be accepted: a NaN read rate
// made Run loop forever in the Poisson draw, a NaN or infinite slot
// length made every energy NaN, and a negative theta made New panic in
// the Zipf sampler.
func TestValidationRejectsNaNAndInf(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"reads-per-slot-NaN", func(c *Config) { c.ReadsPerSlot = math.NaN() }},
		{"slot-hours-NaN", func(c *Config) { c.SlotHours = math.NaN() }},
		{"slot-hours-+Inf", func(c *Config) { c.SlotHours = math.Inf(1) }},
		{"slot-hours--Inf", func(c *Config) { c.SlotHours = math.Inf(-1) }},
		{"zipf-theta-negative", func(c *Config) { c.ZipfTheta = -0.5 }},
		{"zipf-theta-NaN", func(c *Config) { c.ZipfTheta = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := smallConfig(t)
			tc.mut(&c)
			_, err := New(c)
			if err == nil {
				t.Fatal("New accepted the config")
			}
			if !strings.HasPrefix(err.Error(), "core: ") {
				t.Fatalf("error %q lacks the core: prefix", err)
			}
		})
	}
}

func TestApplyDefaults(t *testing.T) {
	c := Config{
		Cluster: storage.DefaultConfig(),
		Trace:   genTrace(t, workload.Scaled(0.05)),
		Green:   referenceSupply(t, 10),
		Policy:  sched.Baseline{},
	}
	sim, err := New(c)
	if err != nil {
		t.Fatalf("defaults should make a minimal config valid: %v", err)
	}
	if sim.cfg.SlotHours != 1 || sim.cfg.Overcommit != 1.5 {
		t.Fatalf("defaults not applied: %+v", sim.cfg)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLeadAcidLosesMoreThanLithiumIon(t *testing.T) {
	// Surplus-scarce regime: the battery never fills, so the chemistry's
	// charging efficiency directly determines how much of the overnight
	// deficit green energy can cover.
	mk := func(chem battery.Chemistry) *Result {
		cfg := smallConfig(t)
		cfg.Green = referenceSupply(t, 45)
		cfg.BatterySpec = battery.MustSpec(chem)
		cfg.BatteryCapacityWh = 120 * units.KilowattHour
		return run(t, cfg)
	}
	la := mk(battery.LeadAcid)
	li := mk(battery.LithiumIon)
	if la.Battery.TotalLoss() <= li.Battery.TotalLoss() {
		t.Fatalf("LA losses %v should exceed LI losses %v",
			la.Battery.TotalLoss(), li.Battery.TotalLoss())
	}
	if la.Energy.Brown <= li.Energy.Brown {
		t.Fatalf("LA brown %v should exceed LI brown %v", la.Energy.Brown, li.Energy.Brown)
	}
}

func TestOverloadedClusterReportsMissesNotHang(t *testing.T) {
	cfg := smallConfig(t)
	cl := cfg.Cluster
	cl.Nodes = 1 // grossly undersized for the trace
	cfg.Cluster = cl
	cfg.MaxOverrunSlots = 100
	res := run(t, cfg)
	if res.SLA.DeadlineMisses == 0 {
		t.Fatal("overloaded cluster should miss deadlines")
	}
	if res.Slots > cfg.MaxOverrunSlots+200 {
		t.Fatalf("overrun guard failed: ran %d slots", res.Slots)
	}
}

func TestBrownMonotoneInPanelArea(t *testing.T) {
	prev := units.Energy(math.Inf(1))
	for _, area := range []float64{0, 30, 60, 120} {
		cfg := smallConfig(t)
		if area == 0 {
			cfg.Green = solar.Series{}
		} else {
			cfg.Green = referenceSupply(t, area)
		}
		res := run(t, cfg)
		if res.Energy.Brown > prev+1 { // 1 Wh FP tolerance
			t.Fatalf("brown energy increased with panel area %v: %v > %v", area, res.Energy.Brown, prev)
		}
		prev = res.Energy.Brown
	}
}

func TestReadLatencyTracking(t *testing.T) {
	base := run(t, smallConfig(t))
	if base.ReadLatencyMs.N == 0 {
		t.Fatal("no read latencies recorded")
	}
	// With all disks spinning, every read is warm: P99 equals the base.
	if base.ReadLatencyMs.P99 != base.ReadLatencyMs.P50 {
		t.Fatalf("baseline latency tail unexpected: %+v", base.ReadLatencyMs)
	}

	// An aggressive spin-down config on a sparse layout produces cold
	// reads with visible tail latency.
	cfg := smallConfig(t)
	cfg.Cluster.Objects = 120 // sparse: large parkable fraction
	cfg.Policy = sched.SpinDown{}
	cfg.ZipfTheta = 0 // uniform popularity: cold objects get hit
	spin := run(t, cfg)
	if spin.SLA.ColdReads == 0 {
		t.Skip("layout produced no cold reads in this draw")
	}
	if spin.ReadLatencyMs.Max <= base.ReadLatencyMs.Max {
		t.Fatalf("cold reads should raise max latency: %+v vs %+v",
			spin.ReadLatencyMs, base.ReadLatencyMs)
	}
}

func TestUtilizationModelReducesDemand(t *testing.T) {
	base := run(t, smallConfig(t))
	cfg := smallConfig(t)
	cfg.ModelUtilization = true
	modeled := run(t, cfg)
	// Jobs drawing ~65% of their reservation must reduce dynamic demand.
	if modeled.Energy.Demand >= base.Energy.Demand {
		t.Fatalf("utilization model demand %v not below reservation model %v",
			modeled.Energy.Demand, base.Energy.Demand)
	}
	// Conservation still holds (asserted in Run); determinism too.
	again := run(t, cfg)
	if again.Energy != modeled.Energy || again.SLA != modeled.SLA {
		t.Fatal("utilization model broke determinism")
	}
}

func TestOverloadResolutionTriggersUnderAggressiveOvercommit(t *testing.T) {
	cfg := smallConfig(t)
	cfg.ModelUtilization = true
	cfg.Overcommit = 2.5          // reckless: actual demand will spill over hardware
	cfg.Policy = sched.SpinDown{} // consolidates hard
	res := run(t, cfg)
	if res.SLA.OverloadEvents == 0 {
		t.Skip("no overloads at this scale/draw; sweep covers it at larger scales")
	}
	if res.SLA.OverloadMigrations == 0 && res.SLA.ThrottledSlots == 0 {
		t.Fatal("overloads occurred but neither migration nor throttling resolved them")
	}
	// Forced migrations are included in the total count and priced.
	if res.SLA.Migrations < res.SLA.OverloadMigrations {
		t.Fatalf("migration accounting inconsistent: total %d < forced %d",
			res.SLA.Migrations, res.SLA.OverloadMigrations)
	}
}

func TestNoOverloadCountersWithoutModel(t *testing.T) {
	res := run(t, smallConfig(t))
	if res.SLA.OverloadEvents != 0 || res.SLA.OverloadMigrations != 0 || res.SLA.ThrottledSlots != 0 {
		t.Fatalf("overload counters active without the utilization model: %+v", res.SLA)
	}
}

func TestMultiWeekEndurance(t *testing.T) {
	// Three weeks of arrivals at small scale: the simulator must stay
	// deterministic and conserve energy over long horizons, and the solar
	// trace must cover the whole run.
	gen := workload.Scaled(0.08)
	gen.Slots = 24 * 21
	cfg := smallConfig(t)
	cfg.Trace = genTrace(t, gen)
	scfg := solar.DefaultFarm(40)
	scfg.Slots = 24 * 28
	cfg.Green = genSupply(t, scfg)
	cfg.Policy = sched.GreenMatch{}
	a := run(t, cfg)
	if a.SLA.Completed != len(cfg.Trace) {
		t.Fatalf("completed %d/%d over three weeks", a.SLA.Completed, len(cfg.Trace))
	}
	if a.Slots < 24*21 {
		t.Fatalf("run too short: %d slots", a.Slots)
	}
	b := run(t, cfg)
	if a.Energy != b.Energy {
		t.Fatal("long-horizon determinism broken")
	}
}

func TestHalfHourSlots(t *testing.T) {
	// The settlement math must hold at finer slot granularity: C-rate
	// windows, self-discharge and energy integration all scale by
	// SlotHours. Durations are in slots, so this models 30-minute jobs
	// rather than rescaling the reference week.
	cfg := smallConfig(t)
	cfg.SlotHours = 0.5
	cfg.BatteryCapacityWh = 10 * units.KilowattHour
	cfg.Policy = sched.GreenMatch{}
	res := run(t, cfg) // Run asserts conservation
	if res.SLA.Completed != len(cfg.Trace) {
		t.Fatalf("completed %d/%d at half-hour slots", res.SLA.Completed, len(cfg.Trace))
	}
	again := run(t, cfg)
	if res.Energy != again.Energy {
		t.Fatal("half-hour slots broke determinism")
	}
}
