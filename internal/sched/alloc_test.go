package sched

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestPlacerSteadyStateAllocFree pins down the Placer's reuse contract: a
// warmed Placer calling Place with a same-shaped item set — the simulator
// does exactly this once per slot — must not allocate. Its scratch (order
// and load slices, the duplicate-detection set) is reset in place.
func TestPlacerSteadyStateAllocFree(t *testing.T) {
	s := rng.New(7, "alloc-placer")
	items := make([]PlaceItem, 50)
	for i := range items {
		pin := -1
		if i%3 == 0 {
			pin = i % 8
		}
		items[i] = PlaceItem{ID: i, CPU: s.Uniform(0.5, 2), RAM: s.Uniform(1, 4), Pinned: pin}
	}
	var p Placer
	if err := p.Place(items, 8, 16, 48, 1.5, nil); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := p.Place(items, 8, 16, 48, 1.5, nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("warmed Place allocates %.0f times per call; want 0", avg)
	}
}

// busyMatchView builds a view with several classes of deferrable
// participants and a forecast that keeps them deferred, so Plan exercises
// the full grouped matching. The current slot has green capacity (a dark
// slot 0 would let Plan skip the solve) but the next slot is dark, with
// plenty of supply after it: every multi-slot job covers its run better
// by starting later, so the solver runs and still starts nobody.
// The deadline stagger parameter shifts latest-start offsets between views,
// changing the matching topology.
func busyMatchView(slot, stagger int, sc *PlanScratch) View {
	var waiting []JobRef
	id := 0
	for c := 0; c < 4; c++ {
		for j := 0; j < 10; j++ {
			dur := 2 + c
			deadline := slot + 20 + stagger*c + dur
			waiting = append(waiting, mkRef(id, workload.Batch, 0, dur, deadline, dur))
			id++
		}
	}
	forecast := make([]units.Power, 24)
	forecast[0] = 150
	for k := 2; k < 24; k++ {
		forecast[k] = units.Power(100 + 50*k)
	}
	return View{
		Slot:               slot,
		Waiting:            waiting,
		GreenForecast:      forecast,
		EstMandatoryPowerW: 50,
		PerJobPowerW:       25,
		TotalCPUCapacity:   200,
		Scratch:            sc,
	}
}

// TestGreenMatchPlanScratchEquivalent pins the PlanScratch contract: a
// scratch-threaded Plan must return the same decision as a scratch-free
// one, across repeated and varied views, all solved on the same reused
// solver.
func TestGreenMatchPlanScratchEquivalent(t *testing.T) {
	g := GreenMatch{}
	sc := &PlanScratch{}
	views := []View{
		busyMatchView(5, 10, sc),
		busyMatchView(5, 10, sc), // repeat
		busyMatchView(6, 10, sc),
		busyMatchView(6, 11, sc),
		busyMatchView(7, 3, sc),
	}
	for i, v := range views {
		got := g.Plan(v)
		v.Scratch = nil
		want := g.Plan(v)
		if len(got.StartWaiting) != len(want.StartWaiting) {
			t.Fatalf("view %d: %d starts with scratch, %d without", i, len(got.StartWaiting), len(want.StartWaiting))
		}
		for k := range want.StartWaiting {
			if got.StartWaiting[k] != want.StartWaiting[k] {
				t.Fatalf("view %d start %d: %d != %d", i, k, got.StartWaiting[k], want.StartWaiting[k])
			}
		}
		if len(got.SuspendRunning) != len(want.SuspendRunning) {
			t.Fatalf("view %d: suspend counts differ", i)
		}
		if got.Consolidate != want.Consolidate || got.SpinDownDisks != want.SpinDownDisks {
			t.Fatalf("view %d: flags differ", i)
		}
	}
}

// TestGreenMatchPlanBusyAllocFree extends the zero-allocation contract to
// the busy matching path: once the scratch is warm, planning a slot with
// dozens of matching participants must not allocate, whether the view
// repeats or its topology shifts between views. Every plan here solves.
func TestGreenMatchPlanBusyAllocFree(t *testing.T) {
	g := GreenMatch{}
	sc := &PlanScratch{}
	v1 := busyMatchView(5, 10, sc)
	v2 := busyMatchView(6, 11, sc)
	plans := 0
	plan := func(v View) {
		plans++
		g.Plan(v)
	}
	for i := 0; i < 4; i++ {
		plan(v1)
		plan(v2)
	}
	avg := testing.AllocsPerRun(100, func() {
		plan(v1) // different topology from v2
		plan(v1) // the same view again
		plan(v2)
	})
	if avg > 0 {
		t.Fatalf("warm busy-path Plan allocates %.1f times per round; want 0", avg)
	}
	if st := sc.SolverStats(); st.ColdSolves != plans {
		t.Fatalf("%d plans counted %+v, want one cold solve each", plans, st)
	}
}

// TestQuiescentDecisionContract verifies the QuiescentPlanner guarantee for
// every built-in policy: on any view with empty Waiting and
// RunningDeferrable sets, Plan returns exactly QuiescentDecision().
func TestQuiescentDecisionContract(t *testing.T) {
	policies := []Policy{
		Baseline{},
		SpinDown{},
		DeferFraction{Fraction: 0.5},
		GreenMatch{},
		GreenMatch{BatteryAware: true},
		EDF{},
		KChoices{},
		Cucumber{},
	}
	views := []View{
		{Slot: 0},
		{Slot: 9, GreenForecast: flatForecast(500, 24), EstMandatoryPowerW: 100, PerJobPowerW: 25},
		{Slot: 3, GreenForecast: flatForecast(0, 24), EstMandatoryPowerW: 400, PerJobPowerW: 25, Degraded: true, FailedNodes: 2, TotalCPUCapacity: 10},
		{Slot: 7, GreenForecast: flatForecast(200, 24), BatterySoC: 0.5, BatteryUsableWh: 5000, BatteryEfficiency: 0.9, PerJobPowerW: 25},
	}
	for _, p := range policies {
		qp, ok := p.(QuiescentPlanner)
		if !ok {
			t.Fatalf("%s does not implement QuiescentPlanner", p.Name())
		}
		want := qp.QuiescentDecision()
		for i, v := range views {
			got := p.Plan(v)
			if len(got.StartWaiting) != len(want.StartWaiting) ||
				len(got.SuspendRunning) != len(want.SuspendRunning) ||
				got.Consolidate != want.Consolidate ||
				got.SpinDownDisks != want.SpinDownDisks {
				t.Fatalf("%s view %d: Plan %+v != QuiescentDecision %+v", p.Name(), i, got, want)
			}
		}
	}
}
