package sched

import (
	"math"
	"repro/internal/match"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// mkRef builds a waiting JobRef with the given slack structure.
func mkRef(id int, class workload.Class, submit, duration, deadline, remaining int) JobRef {
	return JobRef{
		Job:       workload.Job{ID: id, Class: class, Submit: submit, Duration: duration, Deadline: deadline, CPU: 1, RAMGB: 2},
		Remaining: remaining,
	}
}

func flatForecast(w float64, h int) []units.Power {
	out := make([]units.Power, h)
	for i := range out {
		out[i] = units.Power(w)
	}
	return out
}

func TestStickyDeferDeterministicAndProportional(t *testing.T) {
	for _, frac := range []float64{0.3, 0.5, 0.7} {
		hits := 0
		n := 20000
		for id := 0; id < n; id++ {
			a := stickyDefer(id, frac)
			b := stickyDefer(id, frac)
			if a != b {
				t.Fatal("stickyDefer not deterministic")
			}
			if a {
				hits++
			}
		}
		got := float64(hits) / float64(n)
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("fraction %v: participation %v", frac, got)
		}
	}
	if stickyDefer(123, 1.0) != true || stickyDefer(123, 0) != false {
		t.Error("edge fractions wrong")
	}
}

func TestStickyDeferMonotoneInFraction(t *testing.T) {
	// A job deferred at 30% must also be deferred at 70%: fraction sweeps
	// must nest, or the sweep experiment compares incomparable populations.
	for id := 0; id < 5000; id++ {
		if stickyDefer(id, 0.3) && !stickyDefer(id, 0.7) {
			t.Fatalf("job %d deferred at 0.3 but not at 0.7", id)
		}
	}
}

func TestBaselineStartsEverything(t *testing.T) {
	v := View{
		Slot:    5,
		Waiting: []JobRef{mkRef(1, workload.Batch, 5, 6, 23, 6), mkRef(2, workload.Batch, 5, 6, 23, 6)},
	}
	d := Baseline{}.Plan(v)
	if len(d.StartWaiting) != 2 {
		t.Fatalf("baseline started %d, want 2", len(d.StartWaiting))
	}
	if d.Consolidate || d.SpinDownDisks || len(d.SuspendRunning) != 0 {
		t.Fatal("baseline must not consolidate, spin down or suspend")
	}
}

func TestSpinDownFlags(t *testing.T) {
	d := SpinDown{}.Plan(View{Waiting: []JobRef{mkRef(1, workload.Batch, 0, 6, 18, 6)}})
	if !d.Consolidate || !d.SpinDownDisks {
		t.Fatal("spindown policy must consolidate and park disks")
	}
	if len(d.StartWaiting) != 1 {
		t.Fatal("spindown starts everything")
	}
}

func TestDeferFractionHoldsWhenNoGreen(t *testing.T) {
	p := DeferFraction{Fraction: 1}
	v := View{
		Slot:               0,
		Waiting:            []JobRef{mkRef(1, workload.Batch, 0, 6, 18, 6)},
		GreenForecast:      flatForecast(0, 24), // night
		EstMandatoryPowerW: 1000,
		PerJobPowerW:       25,
	}
	d := p.Plan(v)
	if len(d.StartWaiting) != 0 {
		t.Fatalf("no green: participant should wait, started %v", d.StartWaiting)
	}
}

func TestDeferFractionStartsWhenGreenAmple(t *testing.T) {
	p := DeferFraction{Fraction: 1}
	v := View{
		Slot:               0,
		Waiting:            []JobRef{mkRef(1, workload.Batch, 0, 6, 18, 6), mkRef(2, workload.Batch, 0, 6, 18, 6)},
		GreenForecast:      flatForecast(5000, 24),
		EstMandatoryPowerW: 1000,
		PerJobPowerW:       25,
	}
	d := p.Plan(v)
	if len(d.StartWaiting) != 2 {
		t.Fatalf("ample green: want both started, got %v", d.StartWaiting)
	}
}

func TestDeferFractionBudgetLimitsStarts(t *testing.T) {
	p := DeferFraction{Fraction: 1}
	// Headroom for exactly 2 jobs (50 W over mandatory, 25 W per job).
	v := View{
		Slot:               0,
		Waiting:            []JobRef{mkRef(1, workload.Batch, 0, 6, 18, 6), mkRef(2, workload.Batch, 0, 6, 18, 6), mkRef(3, workload.Batch, 0, 6, 18, 6)},
		GreenForecast:      flatForecast(1050, 24),
		EstMandatoryPowerW: 1000,
		PerJobPowerW:       25,
	}
	d := p.Plan(v)
	if len(d.StartWaiting) != 2 {
		t.Fatalf("budget 2: started %d", len(d.StartWaiting))
	}
}

func TestDeferFractionForcesLowSlackStarts(t *testing.T) {
	p := DeferFraction{Fraction: 1}
	v := View{
		Slot:               10,
		Waiting:            []JobRef{mkRef(1, workload.Batch, 0, 6, 17, 6)}, // slack = 17-6-10 = 1 <= reserve
		GreenForecast:      flatForecast(0, 24),
		EstMandatoryPowerW: 1000,
		PerJobPowerW:       25,
	}
	d := p.Plan(v)
	if len(d.StartWaiting) != 1 {
		t.Fatal("slack-exhausted job must start even without green")
	}
}

func TestDeferFractionSuspendsRunningOnDeficit(t *testing.T) {
	p := DeferFraction{Fraction: 1}
	v := View{
		Slot:               0,
		RunningDeferrable:  []JobRef{func() JobRef { r := mkRef(1, workload.Batch, 0, 6, 18, 5); r.Running = true; return r }()},
		GreenForecast:      flatForecast(0, 24),
		EstMandatoryPowerW: 1000,
		PerJobPowerW:       25,
	}
	d := p.Plan(v)
	if len(d.SuspendRunning) != 1 {
		t.Fatal("deficit: running participant with slack should suspend")
	}
}

func TestDeferFractionNonParticipantsNeverWait(t *testing.T) {
	p := DeferFraction{Fraction: 0.5}
	var nonPart int = -1
	for id := 0; id < 100; id++ {
		if !stickyDefer(id, 0.5) {
			nonPart = id
			break
		}
	}
	if nonPart < 0 {
		t.Fatal("no non-participant found")
	}
	v := View{
		Slot:               0,
		Waiting:            []JobRef{mkRef(nonPart, workload.Batch, 0, 6, 18, 6)},
		GreenForecast:      flatForecast(0, 24),
		EstMandatoryPowerW: 1000,
		PerJobPowerW:       25,
	}
	d := p.Plan(v)
	if len(d.StartWaiting) != 1 {
		t.Fatal("non-participant must start immediately")
	}
}

func TestGreenMatchWaitsForGreenWindow(t *testing.T) {
	g := GreenMatch{}
	// Night now; sun arrives at slot +6 with plenty of headroom. A job
	// with 10 slots of slack should be matched to a future slot, not now.
	fc := flatForecast(0, 24)
	for k := 6; k < 16; k++ {
		fc[k] = 3000
	}
	v := View{
		Slot:               0,
		Waiting:            []JobRef{mkRef(101, workload.Batch, 0, 4, 20, 4)},
		GreenForecast:      fc,
		EstMandatoryPowerW: 500,
		PerJobPowerW:       25,
	}
	d := g.Plan(v)
	if len(d.StartWaiting) != 0 {
		t.Fatalf("job should wait for the green window, started %v", d.StartWaiting)
	}
}

func TestGreenMatchStartsInGreenNow(t *testing.T) {
	g := GreenMatch{}
	v := View{
		Slot:               12,
		Waiting:            []JobRef{mkRef(101, workload.Batch, 12, 4, 30, 4)},
		GreenForecast:      flatForecast(4000, 24),
		EstMandatoryPowerW: 500,
		PerJobPowerW:       25,
	}
	d := g.Plan(v)
	if len(d.StartWaiting) != 1 {
		t.Fatal("green now and forever: job should start immediately (earliness bonus)")
	}
}

func TestGreenMatchForcesDeadline(t *testing.T) {
	g := GreenMatch{}
	v := View{
		Slot:               10,
		Waiting:            []JobRef{mkRef(101, workload.Batch, 0, 4, 15, 4)}, // slack 1
		GreenForecast:      flatForecast(0, 24),
		EstMandatoryPowerW: 500,
		PerJobPowerW:       25,
	}
	d := g.Plan(v)
	if len(d.StartWaiting) != 1 {
		t.Fatal("slack-exhausted job must start now")
	}
}

func TestGreenMatchSuspendsOnDeficit(t *testing.T) {
	g := GreenMatch{}
	running := mkRef(7, workload.Batch, 0, 6, 30, 5)
	running.Running = true
	// Night now, sun tomorrow: suspending pays because the work can resume
	// inside the green window.
	fc := flatForecast(0, 24)
	for k := 8; k < 18; k++ {
		fc[k] = 3000
	}
	v := View{
		Slot:               0,
		RunningDeferrable:  []JobRef{running},
		GreenForecast:      fc,
		EstMandatoryPowerW: 1000,
		PerJobPowerW:       25,
	}
	d := g.Plan(v)
	if len(d.SuspendRunning) != 1 {
		t.Fatal("running deferrable should suspend at night when sun is coming")
	}
}

func TestGreenMatchDegradesGracefullyWithoutGreen(t *testing.T) {
	// A horizon with no green capacity at all (deep winter overcast) must
	// not hold or suspend anything: deferral can never cash in.
	g := GreenMatch{}
	running := mkRef(7, workload.Batch, 0, 6, 30, 5)
	running.Running = true
	v := View{
		Slot:               0,
		Waiting:            []JobRef{mkRef(1, workload.Batch, 0, 6, 30, 6)},
		RunningDeferrable:  []JobRef{running},
		GreenForecast:      flatForecast(0, 24),
		EstMandatoryPowerW: 1000,
		PerJobPowerW:       25,
	}
	d := g.Plan(v)
	if len(d.StartWaiting) != 1 {
		t.Fatal("greenless horizon: waiting job should start immediately")
	}
	if len(d.SuspendRunning) != 0 {
		t.Fatal("greenless horizon: nothing should be suspended")
	}
	if !d.Consolidate || !d.SpinDownDisks {
		t.Fatal("degraded mode still consolidates and parks disks")
	}
}

func TestGreenMatchMixedFractionName(t *testing.T) {
	if (GreenMatch{}).Name() != "greenmatch" {
		t.Errorf("name %q", GreenMatch{}.Name())
	}
	if (GreenMatch{Fraction: 0.3}).Name() != "mixed30%" {
		t.Errorf("mixed name %q", GreenMatch{Fraction: 0.3}.Name())
	}
	if (GreenMatch{Solver: SolverGreedy}).Name() != "greenmatch-greedy" {
		t.Errorf("solver name %q", GreenMatch{Solver: SolverGreedy}.Name())
	}
	if (DeferFraction{Fraction: 0.5}).Name() != "defer50%" {
		t.Errorf("defer name %q", DeferFraction{Fraction: 0.5}.Name())
	}
}

func TestGreenMatchEmptyView(t *testing.T) {
	d := GreenMatch{}.Plan(View{Slot: 0, GreenForecast: flatForecast(100, 24), PerJobPowerW: 25})
	if len(d.StartWaiting) != 0 || len(d.SuspendRunning) != 0 {
		t.Fatal("empty view should produce empty decision")
	}
}

func TestJobRefSlack(t *testing.T) {
	r := mkRef(1, workload.Batch, 0, 6, 18, 6)
	if r.SlackAt(0) != 12 {
		t.Fatalf("slack %d, want 12", r.SlackAt(0))
	}
	r.Remaining = 2
	if r.SlackAt(10) != 6 {
		t.Fatalf("slack %d, want 6", r.SlackAt(10))
	}
}

func TestPolicyNames(t *testing.T) {
	if (Baseline{}).Name() != "baseline" || (SpinDown{}).Name() != "spindown" {
		t.Error("basic policy names wrong")
	}
	if (GreenMatch{Horizon: -1}).horizon() != 24 {
		t.Error("default horizon wrong")
	}
	if (GreenMatch{Fraction: 2}).fraction() != 1 {
		t.Error("out-of-range fraction should clamp to 1")
	}
	if (GreenMatch{BatteryAware: true}).Name() != "greenmatch-batteryaware" {
		t.Errorf("battery-aware name %q", GreenMatch{BatteryAware: true}.Name())
	}
}

func TestSpaceJobs(t *testing.T) {
	// Unknown capacity: unbounded.
	if (&View{}).SpaceJobs() < 1<<29 {
		t.Error("capacity-less view should be unbounded")
	}
	// Free capacity divided by the mean waiting-job demand.
	v := View{
		TotalCPUCapacity: 100,
		EstMandatoryCPU:  40,
		Waiting: []JobRef{
			mkRef(1, workload.Batch, 0, 2, 10, 2), // CPU 1 each via mkRef
			mkRef(2, workload.Batch, 0, 2, 10, 2),
		},
	}
	if got := v.SpaceJobs(); got != 60 {
		t.Errorf("spaceJobs = %d, want 60 (free 60 / avg 1.0)", got)
	}
	// Saturated cluster: zero.
	v.EstMandatoryCPU = 100
	if v.SpaceJobs() != 0 {
		t.Error("saturated cluster should have zero space")
	}
	// No waiting jobs: the 1.25-core default applies.
	empty := View{TotalCPUCapacity: 12.5, EstMandatoryCPU: 0}
	if got := empty.SpaceJobs(); got != 10 {
		t.Errorf("default-demand spaceJobs = %d, want 10", got)
	}
}

func TestGreenAtPadding(t *testing.T) {
	v := View{GreenForecast: flatForecast(100, 4)}
	if greenAt(v.GreenForecast, 2) != 100 {
		t.Error("in-range read wrong")
	}
	if greenAt(v.GreenForecast, -1) != 0 || greenAt(v.GreenForecast, 10) != 0 {
		t.Error("out-of-range forecast should read as zero")
	}
}

func TestMinf(t *testing.T) {
	if minf(1, 2) != 1 || minf(3, -1) != -1 {
		t.Error("minf wrong")
	}
}

// weightRow returns GreenMatch's weight row for one (latest start,
// remaining) cell in a fresh slice.
func weightRow(g GreenMatch, v View, h, latestStart, remaining int) []float64 {
	row := make([]float64, h)
	g.weightRowInto(&v, h, latestStart, remaining, row)
	return row
}

func TestWeightRowDurationAwareness(t *testing.T) {
	// Green for 3 slots starting at +2; a 1-slot job scores higher at +2
	// than a 6-slot job does (most of the long job runs past the window).
	fc := flatForecast(0, 24)
	for k := 2; k < 5; k++ {
		fc[k] = 2000
	}
	v := View{Slot: 0, GreenForecast: fc, EstMandatoryPowerW: 100, PerJobPowerW: 25}
	g := GreenMatch{}
	short := weightRow(g, v, 24, 20, 1)
	long := weightRow(g, v, 24, 20, 6)
	if short[2] <= long[2] {
		t.Errorf("1-slot job at k=2 scores %v, 6-slot job %v; duration-awareness broken", short[2], long[2])
	}
	// Forbidden beyond the latest start.
	row := weightRow(g, v, 24, 3, 1)
	if row[4] != match.Forbidden || row[3] == match.Forbidden {
		t.Error("forbidden boundary wrong")
	}
}
