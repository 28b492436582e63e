package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workload"
)

// chaosPolicies is the policy arena the chaos harness cycles through by
// seed, so every scheduling genre — including the quiescent planners the
// slot-skipping fast path special-cases — faces random fault schedules.
// Mirrors expt.ArenaPolicies, which internal/core cannot import.
var chaosPolicies = []sched.Policy{
	sched.Baseline{},
	sched.SpinDown{},
	sched.DeferFraction{Fraction: 0.6},
	sched.GreenMatch{},
	sched.GreenMatch{Fraction: 0.5},
	sched.EDF{},
	sched.KChoices{},
	sched.Cucumber{},
}

// chaosConfig returns the small battery-equipped scenario the chaos
// harness perturbs: big enough that every fault kind has something to
// break (a battery to fade, green supply to derate, replicas to lose),
// small enough that hundreds of seeded runs stay a unit test. The policy
// cycles with the seed, so the 16-seed -short pass still covers the whole
// arena twice.
func chaosConfig(t testing.TB, seed int64) Config {
	cfg := smallConfig(t)
	gen := workload.Scaled(0.08)
	gen.Seed = seed
	cfg.Trace = genTrace(t, gen)
	cfg.BatteryCapacityWh = 10 * units.KilowattHour
	cfg.Seed = seed
	cfg.Policy = chaosPolicies[int(seed)%len(chaosPolicies)]
	return cfg
}

// chaosFaultConfig is chaosConfig under the seed's generated fault
// schedule.
func chaosFaultConfig(t testing.TB, seed int64) Config {
	cfg := chaosConfig(t, seed)
	cfg.Faults = fault.Generate(seed, fault.GenSpec{
		Slots:     200,
		Nodes:     cfg.Cluster.Nodes,
		AllowMTBF: true,
	})
	return cfg
}

// chaosRun simulates one seeded fault schedule with the conservation
// auditor attached and the full slot trace captured as JSONL bytes.
func chaosRun(t *testing.T, seed int64) (*Result, []byte) {
	t.Helper()
	cfg := chaosFaultConfig(t, seed)
	auditor := audit.NewAuditor()
	var buf bytes.Buffer
	cfg.Observer = audit.Tee(auditor, audit.NewJSONL(&buf))
	res := run(t, cfg)
	if n := auditor.ViolationCount(); n != 0 {
		t.Fatalf("seed %d: %d conservation violations under faults: %v",
			seed, n, auditor.Violations())
	}
	return res, buf.Bytes()
}

// TestChaos is the chaos harness: hundreds of seeded random fault
// schedules — crash storms, supply dropouts, battery fade, forecast
// corruption, all at once — each run audited slot-by-slot and run twice to
// prove byte-determinism. Every run must stay conservation-clean, and the
// degraded-mode metrics must be non-zero exactly when faults actually
// fired.
func TestChaos(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 16
	}
	for i := 0; i < seeds; i++ {
		seed := int64(1000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, trace := chaosRun(t, seed)
			res2, trace2 := chaosRun(t, seed)
			if !bytes.Equal(trace, trace2) {
				t.Fatalf("seed %d: slot traces differ between identical runs (%d vs %d bytes)",
					seed, len(trace), len(trace2))
			}
			if !reflect.DeepEqual(res, res2) {
				t.Fatalf("seed %d: results differ between identical runs", seed)
			}

			if res.SLA.Completed+res.SLA.DeadlineMisses < res.SLA.Submitted {
				t.Fatalf("seed %d: %d jobs unaccounted for (%d submitted, %d completed, %d missed)",
					seed, res.SLA.Submitted-res.SLA.Completed-res.SLA.DeadlineMisses,
					res.SLA.Submitted, res.SLA.Completed, res.SLA.DeadlineMisses)
			}

			cfg := chaosConfig(t, seed)
			cfg.Faults = fault.Generate(seed, fault.GenSpec{
				Slots:     200,
				Nodes:     cfg.Cluster.Nodes,
				AllowMTBF: true,
			})
			fired := cfg.Faults.ActiveWithin(res.Slots) || res.SLA.NodeFailures > 0
			degraded := res.Degrade.DegradedSlots > 0
			if fired != degraded {
				t.Fatalf("seed %d: faults fired=%v but degraded slots=%d (schedule %+v, crashes %d)",
					seed, fired, res.Degrade.DegradedSlots, cfg.Faults, res.SLA.NodeFailures)
			}
			if !degraded && (res.Degrade.CoverageLossSlots != 0 || res.Degrade.BacklogPeak != 0 ||
				res.Degrade.RecoverySlots != 0) {
				t.Fatalf("seed %d: degraded-mode sub-metrics non-zero without degraded slots: %+v",
					seed, res.Degrade)
			}
		})
	}
}

// TestChaosNoFaultControl pins the control case: with no fault schedule
// configured the degraded-mode account stays identically zero.
func TestChaosNoFaultControl(t *testing.T) {
	res := run(t, chaosConfig(t, 7))
	if res.Degrade != (metrics.DegradeAccount{}) {
		t.Fatalf("fault-free run reported degraded-mode metrics: %+v", res.Degrade)
	}
}
