package fault

import (
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/units"
)

func TestZeroConfigDisabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero config must be disabled")
	}
	if NewEngine(c, 1) != nil {
		t.Fatal("disabled config must compile to a nil engine")
	}
	if err := c.Validate(8); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []Event{
		{Kind: "meteor", At: 0},
		{Kind: KindPVDerate, At: -1, Magnitude: 0.5},
		{Kind: KindPVDerate, At: 0, Magnitude: 1.5},
		{Kind: KindPVDerate, At: 0, Magnitude: 0},
		{Kind: KindNodeCrash, At: 0},
		{Kind: KindNodeCrash, At: 0, Nodes: []int{-2}},
		{Kind: KindCrashStorm, At: 0, Count: 0},
		{Kind: KindGridCurtailment, At: 0, CapW: -5},
		{Kind: KindBatteryFade, At: 0, Magnitude: 2},
		{Kind: KindForecastBias, At: 0, Magnitude: -1.5},
		{Kind: KindForecastBias, At: 0, Magnitude: 0},
		{Kind: KindForecastNoise, At: 0, Magnitude: -0.1},
		{Kind: KindPVDropout, At: 3, Duration: -2},
	}
	for i, ev := range cases {
		if err := (Config{Events: []Event{ev}}).Validate(8); err == nil {
			t.Errorf("case %d (%+v): expected validation error", i, ev)
		}
	}
	// Out-of-cluster crash target.
	c := Config{Events: []Event{{Kind: KindNodeCrash, At: 0, Nodes: []int{9}}}}
	if err := c.Validate(8); err == nil {
		t.Error("node-crash target beyond cluster must be rejected")
	}
	if err := c.Validate(0); err != nil {
		t.Errorf("unbounded validation must not check targets: %v", err)
	}
	if err := (Config{CrashMTBFHours: -1}).Validate(0); err == nil {
		t.Error("negative MTBF must be rejected")
	}
}

// TestMTBFDrawParity pins the crash process to the legacy
// failure_mtbf_hours draw discipline: stream "node-failures", probability
// 1/MTBF per one-hour slot, one Bernoulli per healthy powered node in order.
func TestMTBFDrawParity(t *testing.T) {
	const (
		seed = 7
		mtbf = 300.0
	)
	eng := NewEngine(Config{CrashMTBFHours: mtbf, CrashRepairSlots: 5}, seed)
	legacy := rng.New(seed, "node-failures")
	healthy := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for slot := 0; slot < 200; slot++ {
		var want []Crash
		for _, n := range healthy {
			if legacy.Bernoulli(1 / mtbf) {
				want = append(want, Crash{Node: n, RepairSlots: 5})
			}
		}
		got := eng.Crashes(slot, healthy)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("slot %d: crashes %v, want legacy sequence %v", slot, got, want)
		}
	}
}

func TestEventCrashes(t *testing.T) {
	eng := NewEngine(Config{Events: []Event{
		{Kind: KindNodeCrash, At: 3, Duration: 4, Nodes: []int{2, 5}},
		{Kind: KindCrashStorm, At: 10, Duration: 2, Count: 3},
	}}, 1)
	healthy := []int{0, 1, 2, 3, 4, 5, 6, 7}

	if got := eng.Crashes(0, healthy); got != nil {
		t.Fatalf("slot 0: unexpected crashes %v", got)
	}
	got := eng.Crashes(3, healthy)
	want := []Crash{{Node: 2, RepairSlots: 4}, {Node: 5, RepairSlots: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slot 3: got %v, want %v", got, want)
	}
	storm := eng.Crashes(10, healthy)
	if len(storm) != 3 {
		t.Fatalf("storm: got %d victims, want 3: %v", len(storm), storm)
	}
	seen := map[int]bool{}
	for _, c := range storm {
		if c.RepairSlots != 2 {
			t.Errorf("storm victim %d repair %d, want 2", c.Node, c.RepairSlots)
		}
		if seen[c.Node] {
			t.Errorf("storm picked node %d twice", c.Node)
		}
		seen[c.Node] = true
	}
	// Storm victim count clamps to the healthy pool.
	eng2 := NewEngine(Config{Events: []Event{
		{Kind: KindCrashStorm, At: 0, Count: 10},
	}}, 1)
	if got := eng2.Crashes(0, []int{1, 4}); len(got) != 2 {
		t.Fatalf("storm over 2 healthy nodes: got %d victims, want 2", len(got))
	}
}

func TestSupplyFaults(t *testing.T) {
	eng := NewEngine(Config{Events: []Event{
		{Kind: KindPVDerate, At: 0, Duration: 10, Magnitude: 0.5},
		{Kind: KindGridCurtailment, At: 5, Duration: 10, CapW: 300},
		{Kind: KindPVDropout, At: 12, Duration: 2},
	}}, 1)
	cases := []struct {
		slot int
		in   units.Power
		want units.Power
	}{
		{0, 1000, 500},  // derate only
		{5, 1000, 300},  // derate to 500, curtailed at 300
		{5, 400, 200},   // derate below the cap
		{12, 1000, 0},   // dropout wins
		{14, 1000, 300}, // curtailment still on, derate over
		{20, 1000, 1000},
	}
	for _, c := range cases {
		if got := eng.Supply(c.slot, c.in); got != c.want {
			t.Errorf("slot %d supply(%v) = %v, want %v", c.slot, c.in, got, c.want)
		}
	}
}

func TestBatteryFaultWindows(t *testing.T) {
	eng := NewEngine(Config{Events: []Event{
		{Kind: KindChargerOffline, At: 2, Duration: 3},
		{Kind: KindBatteryIdle, At: 10, Duration: 2},
	}}, 1)
	if eng.ChargeBlocked(1) || eng.DischargeBlocked(1) {
		t.Error("slot 1 must be unblocked")
	}
	if !eng.ChargeBlocked(2) || eng.DischargeBlocked(2) {
		t.Error("charger-offline must block charge only")
	}
	if !eng.ChargeBlocked(10) || !eng.DischargeBlocked(10) {
		t.Error("battery-idle must block both directions")
	}
	if eng.ChargeBlocked(12) {
		t.Error("slot 12 past the idle window")
	}
}

func TestFadeFactor(t *testing.T) {
	eng := NewEngine(Config{Events: []Event{
		{Kind: KindBatteryFade, At: 10, Duration: 5, Magnitude: 0.4},
	}}, 1)
	if f := eng.FadeFactor(9); f != 1 {
		t.Errorf("pre-window fade %v, want 1", f)
	}
	prev := 1.0
	for s := 10; s < 20; s++ {
		f := eng.FadeFactor(s)
		if f > prev+1e-12 {
			t.Fatalf("fade not monotone at slot %d: %v after %v", s, f, prev)
		}
		prev = f
	}
	if f := eng.FadeFactor(14); !approx(f, 0.6) {
		t.Errorf("end-of-window fade %v, want 0.6", f)
	}
	if f := eng.FadeFactor(100); !approx(f, 0.6) {
		t.Errorf("fade must persist after the window: %v", f)
	}
	// Fades compose multiplicatively and floor at zero.
	eng2 := NewEngine(Config{Events: []Event{
		{Kind: KindBatteryFade, At: 0, Duration: 1, Magnitude: 1},
		{Kind: KindBatteryFade, At: 0, Duration: 1, Magnitude: 0.5},
	}}, 1)
	if f := eng2.FadeFactor(3); f != 0 {
		t.Errorf("total fade must floor at 0, got %v", f)
	}
}

func TestCorruptForecast(t *testing.T) {
	pred := []units.Power{100, 200, 0, 400}
	quiet := NewEngine(Config{Events: []Event{
		{Kind: KindForecastBias, At: 50, Duration: 1, Magnitude: 0.5},
	}}, 1)
	if got := quiet.CorruptForecast(0, pred); &got[0] != &pred[0] {
		t.Error("inactive corruption must return the input slice untouched")
	}

	bias := NewEngine(Config{Events: []Event{
		{Kind: KindForecastBias, At: 0, Duration: 10, Magnitude: -0.5},
	}}, 1)
	got := bias.CorruptForecast(0, pred)
	want := []units.Power{50, 100, 0, 200}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bias: got %v, want %v", got, want)
	}
	if pred[0] != 100 {
		t.Error("input slice mutated")
	}

	noise := NewEngine(Config{Events: []Event{
		{Kind: KindForecastNoise, At: 0, Duration: 10, Magnitude: 0.3},
	}}, 42)
	a := noise.CorruptForecast(0, pred)
	b := noise.CorruptForecast(0, pred)
	if !reflect.DeepEqual(a, b) {
		t.Error("noise must be deterministic for (seed, slot)")
	}
	for k, p := range a {
		if p < 0 {
			t.Errorf("noise produced negative power at %d: %v", k, p)
		}
		lo := units.Power(float64(pred[k]) * 0.7)
		hi := units.Power(float64(pred[k]) * 1.3)
		if p < lo-1e-9 || p > hi+1e-9 {
			t.Errorf("noise at %d out of band: %v not in [%v,%v]", k, p, lo, hi)
		}
	}
	// The same target slot keeps its perturbation across planning slots:
	// forecast entry for absolute slot 5 as seen from t=0 (k=5) and t=2
	// (k=3) must agree, given equal true predictions.
	flat := []units.Power{100, 100, 100, 100, 100, 100}
	from0 := noise.CorruptForecast(0, flat)
	from2 := noise.CorruptForecast(2, flat)
	if from0[5] != from2[3] {
		t.Errorf("target-slot noise unstable: %v vs %v", from0[5], from2[3])
	}
}

func TestActiveKinds(t *testing.T) {
	eng := NewEngine(Config{Events: []Event{
		{Kind: KindPVDropout, At: 2, Duration: 3},
		{Kind: KindBatteryIdle, At: 3, Duration: 1},
		{Kind: KindPVDropout, At: 4, Duration: 1},
	}}, 1)
	if got := eng.ActiveKinds(3); !reflect.DeepEqual(got, []string{"battery-idle", "pv-dropout"}) {
		t.Errorf("slot 3 kinds = %v", got)
	}
	if got := eng.ActiveKinds(0); got != nil {
		t.Errorf("slot 0 kinds = %v, want none", got)
	}
	if !eng.EventActive(4) || eng.EventActive(5) {
		t.Error("EventActive window wrong")
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	spec := GenSpec{Slots: 120, Nodes: 8, AllowMTBF: true}
	for seed := int64(0); seed < 300; seed++ {
		a := Generate(seed, spec)
		b := Generate(seed, spec)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ", seed)
		}
		if err := a.Validate(spec.Nodes); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
		}
		if len(a.Events) == 0 {
			t.Fatalf("seed %d: no events generated", seed)
		}
		if !a.ActiveWithin(spec.Slots) {
			t.Fatalf("seed %d: no event starts inside the horizon", seed)
		}
	}
	if reflect.DeepEqual(Generate(1, spec), Generate(2, spec)) {
		t.Error("different seeds produced identical schedules")
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
