package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/units"
)

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "forecast.predict", Start: 10, End: 15},
		{ID: 3, Parent: 1, Name: "sched.plan", Start: 20, End: 50},
		{ID: 4, Parent: 3, Name: "inner", Start: 25, End: 30},
		{ID: 5, Parent: 1, Name: "overrun", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	// The step loses the predict (5), the plan (30) and the part of the
	// overrunning child inside it (10); the plan loses only its own child.
	for id, want := range map[uint64]int64{1: 55, 2: 5, 3: 25, 4: 5, 5: 30} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	p := span{Start: 0, End: 100}
	if got := covered(p, []span{{Start: 20, End: 50}, {Start: 40, End: 60}, {Start: 55, End: 58}}); got != 40 {
		t.Errorf("overlapping children cover %d, want 40", got)
	}
}

type planOnly struct{}

func (planOnly) Name() string                   { return "plan-only" }
func (planOnly) Plan(sched.View) sched.Decision { return sched.Decision{} }

type predictOnly struct{}

func (predictOnly) Name() string                                   { return "predict-only" }
func (predictOnly) Predict(solar.Provider, int, int) []units.Power { return nil }

func TestDecoratorsForwardOnlyWhatTheyWrap(t *testing.T) {
	rec := newRecorder()
	if _, ok := tracePolicy(sched.GreenMatch{}, rec).(sched.QuiescentPlanner); !ok {
		t.Error("a traced GreenMatch hides QuiescentDecision, disabling the fast path")
	}
	if _, ok := tracePolicy(planOnly{}, rec).(sched.QuiescentPlanner); ok {
		t.Error("a traced policy claims a quiescent decision its policy lacks")
	}
	if _, ok := traceForecaster(forecast.Perfect{}, rec).(forecast.IntoPredictor); !ok {
		t.Error("a traced Perfect forecaster hides PredictInto")
	}
	if _, ok := traceForecaster(predictOnly{}, rec).(forecast.IntoPredictor); ok {
		t.Error("a traced forecaster claims a PredictInto its forecaster lacks")
	}
}

// The traced runs must be the runs they measure: the decorated batch run
// and Live pass reproduce the untraced Result, seed 1's pinned digest, and
// the fast-path share, so the decorators keep QuiescentDecision and
// PredictInto engaged.
func TestTracedBatchMatchesUntraced(t *testing.T) {
	for _, name := range []string{"batch-week", "batch-sparse"} {
		w := workloadByName(name)
		in, err := w.build(1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(in.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := digest(res)
		if pin := pinned()[name]; pin != want {
			t.Errorf("%s: seed 1 Result digest %s, pinned %s", name, want, pin)
		}
		e := &env{seed: 1, rec: newRecorder()}
		sim, err := core.New(decorate(in.cfg, e.rec))
		if err != nil {
			t.Fatal(err)
		}
		traced, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if digest(traced) != want {
			t.Errorf("%s: the decorated run changed the Result", name)
		}
		ratio, err := livePass(e, in.cfg, want)
		if err != nil || e.f.failed > 0 {
			t.Fatalf("%s: Live pass: %v %v", name, err, e.f.msgs)
		}
		if wantRatio := float64(res.FastSlots) / float64(res.Slots); ratio != wantRatio {
			t.Errorf("%s: traced fast-slot ratio %g, untraced %g", name, ratio, wantRatio)
		}
		m := layerMetrics(e.rec.snapshot(), counts{fastRatio: ratio}, nil)
		if got := m["core.fast_slot_ratio"].Value; got != ratio {
			t.Errorf("%s: core.fast_slot_ratio %g, want %g", name, got, ratio)
		}
		full := res.Slots - res.FastSlots
		if got := int(m["sched.plan_calls"].Value); got != full {
			t.Errorf("%s: %d plan calls over %d full slots", name, got, full)
		}
		if name == "batch-sparse" && ratio < 0.9 {
			t.Errorf("batch-sparse: only %.2f of slots took the fast path", ratio)
		}
	}
}
