package core

import (
	"testing"
	"testing/quick"

	"repro/internal/battery"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestSimulatorInvariantsProperty fuzzes small scenarios across the whole
// configuration space and asserts the invariants that must hold for every
// run: energy conservation, complete job accounting, SoC bounds, and
// non-negative accumulators.
func TestSimulatorInvariantsProperty(t *testing.T) {
	type knobs struct {
		Seed       int64
		PolicyIdx  uint8
		AreaIdx    uint8
		BatteryIdx uint8
		Chem       bool
		Failures   bool
	}
	policies := []sched.Policy{
		sched.Baseline{},
		sched.SpinDown{},
		sched.DeferFraction{Fraction: 0.7},
		sched.GreenMatch{},
		sched.GreenMatch{Fraction: 0.4},
	}
	areas := []float64{0, 15, 40, 90}
	batteries := []units.Energy{0, 5_000, 25_000}

	f := func(k knobs) bool {
		cfg := DefaultConfig()
		cl := storage.DefaultConfig()
		cl.Nodes = 5
		cl.Objects = 150
		cfg.Cluster = cl
		gen := workload.Scaled(0.06)
		gen.Seed = k.Seed
		cfg.Trace = workload.MustGenerate(gen)
		area := areas[int(k.AreaIdx)%len(areas)]
		if area == 0 {
			cfg.Green = solar.Series{}
		} else {
			cfg.Green = DefaultGreen(area)
		}
		cfg.Policy = policies[int(k.PolicyIdx)%len(policies)]
		cfg.BatteryCapacityWh = batteries[int(k.BatteryIdx)%len(batteries)]
		if k.Chem {
			cfg.BatterySpec = battery.MustSpec(battery.LeadAcid)
		}
		if k.Failures {
			cfg.Faults.CrashMTBFHours = 400
			cfg.Faults.CrashRepairSlots = 8
		}
		cfg.ReadsPerSlot = 20
		cfg.Seed = k.Seed

		res, err := Run(cfg) // Run asserts conservation internally
		if err != nil {
			t.Logf("run failed: %v", err)
			return false
		}
		// Every submitted job is accounted for.
		if res.SLA.Completed+ // finished
			(res.SLA.Submitted-res.SLA.Completed) != res.SLA.Submitted {
			return false
		}
		if res.SLA.Completed > res.SLA.Submitted {
			return false
		}
		// Non-negative accumulators.
		e := res.Energy
		for _, v := range []units.Energy{e.Demand, e.Brown, e.GreenDirect, e.GreenLost,
			e.BatteryOut, e.BatteryEffLoss, e.BatterySelfLoss, e.MigrationOverhead, e.TransitionOverhead} {
			if v < 0 {
				return false
			}
		}
		// Green consumption cannot exceed production.
		if e.GreenDirect+e.BatteryInAccepted > e.GreenProduced+1e-6 {
			return false
		}
		// Battery wear sane.
		if res.BatteryWear < 0 || res.BatteryCycles < 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
