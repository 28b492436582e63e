package core

import (
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/units"
	"repro/internal/workload"
)

// sparseTraceConfig returns a scenario with long quiet gaps between
// arrivals — the shape the event-driven fast path exists for.
func sparseTraceConfig() Config {
	cfg := tinyConfig()
	trace := []workload.Job{{
		ID: 0, Class: workload.Web, Submit: 0, Duration: 60, Deadline: 60, CPU: 1, RAMGB: 2,
	}}
	id := 1
	for _, submit := range []int{0, 40, 41, 90, 150} {
		for j := 0; j < 3; j++ {
			trace = append(trace, workload.Job{
				ID: id, Class: workload.Batch, Submit: submit,
				Duration: 2 + j, Deadline: submit + 30, CPU: 1, RAMGB: 2,
			})
			id++
		}
	}
	cfg.Trace = trace
	cfg.RecordSeries = true
	return cfg
}

// TestFastForwardEquivalence is the core-level skip-equivalence check: a
// run with the fast path enabled must produce a Result — including the
// full per-slot time series — identical to a run with
// DisableSlotSkipping, except for the FastSlots diagnostic, which must be
// nonzero when skipping is on and zero when it is off.
func TestFastForwardEquivalence(t *testing.T) {
	cases := map[string]func() Config{
		"sparse": sparseTraceConfig,
		"sparse-mtbf": func() Config {
			cfg := sparseTraceConfig()
			cfg.FailureMTBFHours = 2000 // random crash process on the fast path
			return cfg
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			fast, err := Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			cfg := mk()
			cfg.DisableSlotSkipping = true
			slow, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fast.FastSlots == 0 {
				t.Fatal("fast path never engaged on a sparse trace")
			}
			if slow.FastSlots != 0 {
				t.Fatalf("DisableSlotSkipping run reported %d fast slots", slow.FastSlots)
			}
			slow.FastSlots = fast.FastSlots
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("fast and full runs diverged:\nfast: %+v\nfull: %+v", fast, slow)
			}
		})
	}
}

// TestFastPathDisabledForUtilizationModel pins the eligibility rule:
// utilization modeling couples draw to per-slot job phase, which the fast
// path does not model, so skipping must stay off.
func TestFastPathDisabledForUtilizationModel(t *testing.T) {
	cfg := sparseTraceConfig()
	cfg.ModelUtilization = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FastSlots != 0 {
		t.Fatalf("fast path engaged %d slots under ModelUtilization", res.FastSlots)
	}
}

// deferringForecast predicts abundant green power for the current slot, a
// dark next slot and abundant power afterwards, so GreenMatch keeps its
// multi-slot deferrable jobs waiting for a fully green run slot after slot
// and the full matching path runs on every plan (a dark current slot would
// let the planner skip the solve).
type deferringForecast struct{}

func (deferringForecast) Name() string { return "deferring" }

func (f deferringForecast) Predict(actual solar.Provider, now, horizon int) []units.Power {
	return f.PredictInto(nil, actual, now, horizon)
}

func (deferringForecast) PredictInto(dst []units.Power, actual solar.Provider, now, horizon int) []units.Power {
	if cap(dst) < horizon {
		dst = make([]units.Power, horizon)
	}
	dst = dst[:horizon]
	for k := range dst {
		if k == 1 {
			dst[k] = 0
		} else {
			dst[k] = 100000
		}
	}
	return dst
}

// TestSlotStepBusyDeferredAllocFree extends the zero-allocation contract
// to the busy deferral path: a slot that runs the full GreenMatch matching
// pipeline — grouping, flow solve, settlement — over dozens of waiting
// jobs must not allocate once the plan scratch is warm. This is the
// regression guard for the solver's reused graph memory; without it,
// every such slot would allocate a fresh flow graph.
func TestSlotStepBusyDeferredAllocFree(t *testing.T) {
	cfg := tinyConfig()
	cfg.Forecaster = deferringForecast{}
	var trace []workload.Job
	id := 0
	for c := 0; c < 4; c++ {
		for j := 0; j < 8; j++ {
			trace = append(trace, workload.Job{
				ID: id, Class: workload.Batch, Submit: 0,
				Duration: 2 + c, Deadline: 600 + 5*c, CPU: 1, RAMGB: 2,
			})
			id++
		}
	}
	cfg.Trace = trace
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.admitDue(0)
	slot := 0
	for ; slot < 12; slot++ {
		sim.step(slot)
	}
	if len(sim.waiting) != len(trace) {
		t.Fatalf("expected all %d jobs still deferred, got %d waiting", len(trace), len(sim.waiting))
	}
	avg := testing.AllocsPerRun(100, func() {
		sim.step(slot)
		slot++
	})
	if avg > 0 {
		t.Fatalf("busy deferred slot step allocates %.1f times per slot; want 0", avg)
	}
	if len(sim.waiting) != len(trace) {
		t.Fatalf("jobs left the waiting pool mid-measurement (%d left)", len(sim.waiting))
	}
	st := sim.planScratch.SolverStats()
	if st.ColdSolves < 100 {
		t.Fatalf("matching solver not exercised as expected: %+v", st)
	}
}

// TestFastStepAllocFree pins the fast kernel itself at zero allocations:
// once a run is quiescent, each skipped slot costs only reads, settlement
// and bookkeeping on reused scratch.
func TestFastStepAllocFree(t *testing.T) {
	cfg := tinyConfig()
	cfg.Trace = workload.Trace{{
		ID: 0, Class: workload.Batch, Submit: 0, Duration: 1, Deadline: 4, CPU: 1, RAMGB: 2,
	}}
	cfg.Policy = sched.GreenMatch{}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.admitDue(0)
	slot := 0
	for ; slot < 8; slot++ {
		sim.step(slot)
	}
	maxSlot := slot + 300
	if !sim.canFastForward(slot, maxSlot) {
		t.Fatal("simulator not quiescent after warm-up")
	}
	avg := testing.AllocsPerRun(100, func() {
		if !sim.canFastForward(slot, maxSlot) {
			t.Fatal("fast path disengaged mid-measurement")
		}
		sim.fastStep(slot)
		slot++
	})
	if avg > 0 {
		t.Fatalf("fast slot step allocates %.1f times per slot; want 0", avg)
	}
	if sim.fastSlots < 100 {
		t.Fatalf("fast kernel ran %d slots; want >= 100", sim.fastSlots)
	}
}
