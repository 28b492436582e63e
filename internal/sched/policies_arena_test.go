package sched

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

func TestArenaPolicyNamesAndDefaults(t *testing.T) {
	cases := []struct {
		p    Policy
		want string
	}{
		{EDF{}, "edf"},
		{KChoices{}, "kchoices2"},
		{KChoices{K: 4}, "kchoices4"},
		{KChoices{K: 1}, "kchoices2"}, // below the minimum: default
		{Cucumber{}, "cucumber90%"},
		{Cucumber{Confidence: 0.75}, "cucumber75%"},
		{Cucumber{Confidence: 7}, "cucumber100%"}, // clamped
	}
	for _, c := range cases {
		if got := c.p.Name(); got != c.want {
			t.Errorf("%+v: Name() = %q, want %q", c.p, got, c.want)
		}
	}
}

// TestEDFOrderingUnderBudget: with space for two jobs, EDF must pick the
// two earliest deadlines regardless of queue order, and forced starts
// (slack at or below reserve) must not consume the budget.
func TestEDFOrderingUnderBudget(t *testing.T) {
	v := View{
		Slot:             10,
		TotalCPUCapacity: 2, // avg CPU 1 => budget 2
		Waiting: []JobRef{
			mkRef(1, workload.Batch, 0, 2, 40, 2), // slack 28
			mkRef(2, workload.Batch, 0, 2, 20, 2), // slack 8
			mkRef(3, workload.Batch, 0, 2, 13, 2), // slack 1: forced
			mkRef(4, workload.Batch, 0, 2, 16, 2), // slack 4
		},
	}
	got := append([]int(nil), EDF{}.Plan(v).StartWaiting...)
	sort.Ints(got)
	// Forced: job 3. Budget of 2 goes to the earliest deadlines among the
	// rest: jobs 4 (deadline 16) and 2 (deadline 20). Job 1 waits.
	want := []int{1, 2, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("EDF starts %v, want %v", got, want)
	}
}

// scaleView multiplies every power quantity in the view by f: supply
// forecast, mandatory draw and per-job draw together.
func scaleView(v View, f float64) View {
	fc := make([]units.Power, len(v.GreenForecast))
	for i, p := range v.GreenForecast {
		fc[i] = p.Scale(f)
	}
	v.GreenForecast = fc
	v.EstMandatoryPowerW = v.EstMandatoryPowerW.Scale(f)
	v.PerJobPowerW = v.PerJobPowerW.Scale(f)
	return v
}

// arenaViews is a grid of views exercising scarcity, abundance and mixed
// forecast shapes for the metamorphic tests.
func arenaViews() []View {
	ramp := make([]units.Power, 24)
	for i := range ramp {
		ramp[i] = units.Power(20 * i)
	}
	spike := flatForecast(10, 24)
	spike[6], spike[7], spike[8] = 400, 500, 400
	waiting := func() []JobRef {
		return []JobRef{
			mkRef(11, workload.Batch, 0, 2, 30, 2),
			mkRef(12, workload.Batch, 0, 5, 18, 5),
			mkRef(13, workload.Batch, 0, 1, 9, 1),
			mkRef(14, workload.Batch, 0, 3, 40, 3),
			mkRef(15, workload.Batch, 0, 4, 12, 4),
		}
	}
	return []View{
		{Slot: 5, Waiting: waiting(), GreenForecast: flatForecast(40, 24), EstMandatoryPowerW: 15, PerJobPowerW: 25},
		{Slot: 5, Waiting: waiting(), GreenForecast: ramp, EstMandatoryPowerW: 60, PerJobPowerW: 25},
		{Slot: 5, Waiting: waiting(), GreenForecast: spike, EstMandatoryPowerW: 20, PerJobPowerW: 25},
		{Slot: 5, Waiting: waiting(), GreenForecast: flatForecast(0, 24), EstMandatoryPowerW: 50, PerJobPowerW: 25},
	}
}

// TestCoScalingInvariance is the metamorphic supply/demand test: scaling
// every power quantity by the same factor must not change any start
// decision — the policies reason about ratios of supply to demand, not
// absolute watts. The factors are powers of two so the scaled floats are
// exact and the comparison is bit-for-bit.
func TestCoScalingInvariance(t *testing.T) {
	pols := []Policy{EDF{}, KChoices{}, KChoices{K: 4}, Cucumber{}}
	for vi, v := range arenaViews() {
		for _, pol := range pols {
			base := fmt.Sprint(pol.Plan(v).StartWaiting)
			for _, f := range []float64{2, 8, 0.5} {
				got := fmt.Sprint(pol.Plan(scaleView(v, f)).StartWaiting)
				if got != base {
					t.Errorf("view %d %s: co-scaling by %v changed starts %s -> %s",
						vi, pol.Name(), f, base, got)
				}
			}
		}
	}
}

// TestCucumberMonotoneInConfidence is the metamorphic admission test:
// raising the confidence requirement shrinks the discounted forecast, so
// the set of admitted (started) jobs must grow pointwise with p — every
// job started at confidence p stays started at any p' > p.
func TestCucumberMonotoneInConfidence(t *testing.T) {
	grid := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	for vi, v := range arenaViews() {
		var prev map[int]bool
		var prevP float64
		for _, p := range grid {
			started := map[int]bool{}
			for _, i := range (Cucumber{Confidence: p}).Plan(v).StartWaiting {
				started[i] = true
			}
			if prev != nil {
				for i := range prev {
					if !started[i] {
						t.Errorf("view %d: job %d started at p=%v but deferred at p=%v — admission not monotone",
							vi, i, prevP, p)
					}
				}
			}
			prev, prevP = started, p
		}
	}
	// The property must not hold vacuously: at least one view must defer
	// at low confidence and admit at full confidence.
	low := Cucumber{Confidence: 0.5}
	high := Cucumber{Confidence: 1.0}
	gap := false
	for _, v := range arenaViews() {
		if len(low.Plan(v).StartWaiting) < len(high.Plan(v).StartWaiting) {
			gap = true
		}
	}
	if !gap {
		t.Fatal("no view distinguishes confidence 0.5 from 1.0: the monotonicity test is vacuous")
	}
}

// TestKChoicesDeterministicAndBudgeted: the sampled probes are a pure hash
// of (job, probe), so plans must be identical across calls, and the start
// count may not exceed budget plus forced starts.
func TestKChoicesDeterministicAndBudgeted(t *testing.T) {
	for vi, v := range arenaViews() {
		v.TotalCPUCapacity = 3 // avg CPU 1 => budget 3 after mandatory 0
		p := KChoices{}
		a := fmt.Sprint(p.Plan(v).StartWaiting)
		b := fmt.Sprint(p.Plan(v).StartWaiting)
		if a != b {
			t.Fatalf("view %d: kchoices plan not deterministic: %s vs %s", vi, a, b)
		}
		forced := 0
		for _, r := range v.Waiting {
			if r.SlackAt(v.Slot) <= 1 {
				forced++
			}
		}
		if n := len(p.Plan(v).StartWaiting); n > 3+forced {
			t.Fatalf("view %d: kchoices started %d jobs with budget 3 and %d forced", vi, n, forced)
		}
	}
}

// TestKChoicesAbundanceStartsEverything: when the whole horizon is green
// enough to cover every slot, no sampled offset can strictly beat starting
// now, so every job starts immediately.
func TestKChoicesAbundanceStartsEverything(t *testing.T) {
	v := View{
		Slot:          5,
		Waiting:       []JobRef{mkRef(1, workload.Batch, 0, 2, 30, 2), mkRef(2, workload.Batch, 0, 4, 40, 4)},
		GreenForecast: flatForecast(10_000, 24),
		PerJobPowerW:  25,
	}
	if got := len(KChoices{}.Plan(v).StartWaiting); got != len(v.Waiting) {
		t.Fatalf("abundance: kchoices started %d of %d jobs", got, len(v.Waiting))
	}
}
