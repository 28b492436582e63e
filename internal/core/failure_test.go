package core

import (
	"reflect"
	"testing"

	"repro/internal/sched"
)

// failureConfig returns a small scenario with aggressive failure injection.
func failureConfig(t testing.TB, mtbf float64) Config {
	cfg := smallConfig(t)
	cfg.Faults.CrashMTBFHours = mtbf
	return cfg
}

func TestFailureInjectionProducesFailures(t *testing.T) {
	cfg := failureConfig(t, 500) // 8 nodes x ~180 slots / 500h MTBF => ~3 crashes expected
	res := run(t, cfg)
	if res.SLA.NodeFailures == 0 {
		t.Fatal("aggressive MTBF produced no failures")
	}
	if res.SLA.RepairJobsGenerated == 0 {
		t.Fatal("failures generated no repair jobs")
	}
	if res.SLA.Submitted != len(cfg.Trace)+res.SLA.RepairJobsGenerated {
		t.Fatalf("submitted %d != trace %d + repairs %d",
			res.SLA.Submitted, len(cfg.Trace), res.SLA.RepairJobsGenerated)
	}
}

func TestFailureConservationHolds(t *testing.T) {
	for _, p := range []sched.Policy{sched.Baseline{}, sched.GreenMatch{}} {
		cfg := failureConfig(t, 300)
		cfg.Policy = p
		res := run(t, cfg) // Run() asserts conservation internally
		tol := 1e-6 * (1 + float64(res.Energy.TotalLoad()))
		if err := res.Energy.ConservationError(); err > tol {
			t.Fatalf("%s: conservation error %v under failures", p.Name(), err)
		}
	}
}

func TestFailureDeterminism(t *testing.T) {
	a := run(t, failureConfig(t, 400))
	b := run(t, failureConfig(t, 400))
	if a.SLA != b.SLA {
		t.Fatalf("failure runs diverged:\n%+v\n%+v", a.SLA, b.SLA)
	}
	if a.Energy != b.Energy {
		t.Fatal("energy accounts diverged under failures")
	}
}

func TestFailureEvictionsKeepJobsAlive(t *testing.T) {
	cfg := failureConfig(t, 300)
	res := run(t, cfg)
	if res.SLA.Evictions == 0 {
		t.Skip("no running job was on a crashing node in this draw")
	}
	// Evicted jobs must not vanish: completed + misses covers everything.
	if res.SLA.Completed+res.SLA.DeadlineMisses < res.SLA.Submitted {
		t.Fatalf("jobs lost: submitted=%d completed=%d misses=%d",
			res.SLA.Submitted, res.SLA.Completed, res.SLA.DeadlineMisses)
	}
}

func TestFailedNodeNeverHostsJobs(t *testing.T) {
	cfg := failureConfig(t, 200) // very aggressive
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wrap the policy run: after Run, assert the cluster has healthy state
	// bookkeeping (failed nodes powered off).
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, n := range sim.cluster.Nodes() {
		if n.Failed && n.Powered {
			t.Fatalf("node %d failed yet powered", n.ID)
		}
	}
}

func TestRepairReturnsCapacity(t *testing.T) {
	// With a short repair time the cluster self-heals: an aggressive
	// failure regime must still complete the overwhelming majority of jobs.
	cfg := failureConfig(t, 400)
	cfg.Faults.CrashRepairSlots = 6
	res := run(t, cfg)
	missRate := float64(res.SLA.DeadlineMisses) / float64(res.SLA.Submitted)
	if missRate > 0.05 {
		t.Fatalf("miss rate %v too high for a self-healing cluster", missRate)
	}
}

func TestNoFailuresWhenDisabled(t *testing.T) {
	res := run(t, smallConfig(t))
	if res.SLA.NodeFailures != 0 || res.SLA.Evictions != 0 || res.SLA.RepairJobsGenerated != 0 {
		t.Fatalf("failure counters nonzero with injection disabled: %+v", res.SLA)
	}
}

func TestFailureConfigValidation(t *testing.T) {
	cfg := failureConfig(t, -1)
	if _, err := New(cfg); err == nil {
		t.Error("negative MTBF should fail")
	}
	cfg = failureConfig(t, 100)
	cfg.Faults.CrashRepairSlots = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative repair slots should fail")
	}
	// An unset repair time runs exactly like an explicit 24 slots, and
	// unlike a shorter one.
	unset := run(t, failureConfig(t, 100))
	if unset.SLA.NodeFailures == 0 {
		t.Fatal("MTBF 100h produced no failures; the default is untested")
	}
	cfg = failureConfig(t, 100)
	cfg.Faults.CrashRepairSlots = 24
	if explicit := run(t, cfg); !reflect.DeepEqual(unset, explicit) {
		t.Fatalf("unset repair time differs from 24 slots:\n%+v\n%+v", unset.SLA, explicit.SLA)
	}
	cfg = failureConfig(t, 100)
	cfg.Faults.CrashRepairSlots = 6
	if short := run(t, cfg); reflect.DeepEqual(unset, short) {
		t.Fatal("a 6-slot repair time ran like the default; the comparison is vacuous")
	}
}
