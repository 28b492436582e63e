package core

import (
	"math"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// These tests pin down the zero-allocation contract of the per-slot hot
// loop: once the simulator reaches steady state, step() must not allocate.
// The scratch state sized in New (masks, view backings, the FFD engine,
// the cover-cache key buffer) is reset in place each slot, never
// reallocated; a regression here silently multiplies GC pressure by the
// slot count of every sweep, so the assertions are exact zeros.
//
// testing.AllocsPerRun divides total allocations by the run count with
// integer truncation, so strictly-amortized growth (the read-latency
// distribution doubling its backing array) still reads as 0 — which is
// the contract: nothing may allocate per slot.

// driveUntilDrained runs cfg through the slot loop with slot skipping
// off, so every slot takes the full step, and returns the drained
// simulator and the next slot index.
func driveUntilDrained(tb testing.TB, cfg Config) (*Simulator, int) {
	tb.Helper()
	cfg.DisableSlotSkipping = true
	sim, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sim.advance(math.MaxInt)
	if !sim.drained {
		tb.Fatalf("trace did not drain within %d slots", sim.next)
	}
	return sim, sim.next
}

// TestSlotStepDrainedAllocFree asserts the drained steady state — the
// tail every long run spends most of its slots in under the GreenMatch
// policy — allocates nothing per slot: policy early-exit, cover-cache
// hit, mask-based power plan, read service and battery settlement all run
// on reused scratch.
func TestSlotStepDrainedAllocFree(t *testing.T) {
	sim, slot := driveUntilDrained(t, tinyConfig(t))
	// One warm-up step past drain lets one-off transitions (final
	// consolidation, cover-cache misses for the drained node set) happen
	// outside the measured window.
	sim.step(slot, sim.faultPhase(slot), false)
	slot++
	avg := testing.AllocsPerRun(100, func() {
		sim.step(slot, sim.faultPhase(slot), false)
		slot++
	})
	if avg > 0 {
		t.Fatalf("drained slot step allocates %.0f times per slot; want 0", avg)
	}
}

// TestSlotStepBusyMandatoryAllocFree asserts the busy mandatory-only path
// — long-running web jobs pinned in place, per-slot placement, full power
// plan, I/O service — allocates nothing per slot either. (The deferrable
// matching path is covered separately by TestSlotStepBusyDeferredAllocFree
// in fastpath_test.go: GreenMatch.Plan solves on the match.Solver held
// by the reusable sched.PlanScratch and is allocation-free once warm too;
// see "The matching solver" in docs/PROFILING.md.)
func TestSlotStepBusyMandatoryAllocFree(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Policy = sched.Baseline{}
	trace := make([]workload.Job, 6)
	for i := range trace {
		trace[i] = workload.Job{
			ID:       i,
			Class:    workload.Web,
			Submit:   0,
			Duration: 400,
			Deadline: 400,
			CPU:      1,
			RAMGB:    2,
		}
	}
	cfg.Trace = trace
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.admitDue(0)
	// Warm up: first placements, node boots, spin-ups.
	slot := 0
	for ; slot < 10; slot++ {
		sim.step(slot, sim.faultPhase(slot), false)
	}
	if len(sim.running) != len(trace) {
		t.Fatalf("expected %d running jobs after warm-up, got %d", len(trace), len(sim.running))
	}
	avg := testing.AllocsPerRun(100, func() {
		sim.step(slot, sim.faultPhase(slot), false)
		slot++
	})
	if avg > 0 {
		t.Fatalf("busy slot step allocates %.0f times per slot; want 0", avg)
	}
	if len(sim.running) != len(trace) {
		t.Fatalf("jobs finished mid-measurement (%d running); the busy-path assertion no longer covers placement", len(sim.running))
	}
}

// TestCoveredOnCacheHitAllocFree asserts the memoized set-cover lookup —
// the power plan's inner call, hit on every steady-state slot — is
// allocation-free: the key is built in the reusable scratch buffer and
// the map lookup's []byte-to-string conversion does not materialize.
func TestCoveredOnCacheHitAllocFree(t *testing.T) {
	sim, err := New(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]bool, sim.cfg.Cluster.Nodes)
	for n := 0; n < len(nodes)/2+1; n++ {
		nodes[n] = true
	}
	if _, ok := sim.coveredOn(nodes); !ok {
		t.Fatal("warm-up cover failed")
	}
	avg := testing.AllocsPerRun(100, func() {
		sim.coveredOn(nodes)
	})
	if avg > 0 {
		t.Fatalf("cover-cache hit allocates %.0f times per call; want 0", avg)
	}
}
