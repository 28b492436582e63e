package oracle

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/units"
)

// testConfig is a small but fully real scenario: 8 nodes, a scaled
// reference trace, a sized solar farm.
func testConfig(t testing.TB) core.Config {
	t.Helper()
	sc := scenario.Scenario{Seed: 1, Nodes: 8, Objects: 400, WorkloadScale: 0.08,
		AreaM2: 40, ReadsPerSlot: 50, Policy: "baseline"}
	cfg, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestSolveIsLowerBound(t *testing.T) {
	cfg := testConfig(t)
	rep, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Brown.Wh() <= 0 {
		t.Fatalf("bound %v not positive: a night-spanning scenario with a coverage floor cannot be all-green", rep.Brown)
	}
	if rep.FloorNodes <= 0 {
		t.Errorf("floor nodes = %d, want > 0 without crash faults", rep.FloorNodes)
	}
	for _, pol := range []sched.Policy{sched.Baseline{}, sched.GreenMatch{}, sched.EDF{}, sched.Cucumber{}} {
		cfg.Policy = pol
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Energy.Brown.Wh() < rep.Brown.Wh() {
			t.Errorf("%s: simulated brown %v below oracle bound %v", pol.Name(), res.Energy.Brown, rep.Brown)
		}
		ratio, ok := rep.Ratio(res.Energy.Brown)
		if !ok {
			t.Fatalf("%s: ratio undefined with positive bound", pol.Name())
		}
		if ratio < 1 {
			t.Errorf("%s: competitive ratio %.4f < 1", pol.Name(), ratio)
		}
	}
}

func TestSolveNoGreenMeansAllBrown(t *testing.T) {
	cfg := testConfig(t)
	cfg.Green = solar.Series{} // no supply at all
	rep, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served.Wh() != 0 {
		t.Errorf("served %v with zero supply", rep.Served)
	}
	if !units.ApproxEqual(rep.Brown, rep.Demand, 1e-9) {
		t.Errorf("bound %v != counted demand %v with zero supply", rep.Brown, rep.Demand)
	}
	if !units.ApproxEqual(rep.Demand, rep.Floor+rep.Jobs, 1e-9) {
		t.Errorf("demand %v != floor %v + jobs %v", rep.Demand, rep.Floor, rep.Jobs)
	}
	if rep.Jobs.Wh() <= 0 {
		t.Errorf("job demand %v, want positive for a real trace", rep.Jobs)
	}
}

func TestSolveAbundantGreenMeansNoBrown(t *testing.T) {
	cfg := testConfig(t)
	flat := make(solar.Series, rapSlots(cfg))
	for i := range flat {
		flat[i] = 10 * units.Megawatt
	}
	cfg.Green = flat
	rep, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Brown.Wh() != 0 {
		t.Errorf("bound %v under limitless green, want 0", rep.Brown)
	}
	if _, ok := rep.Ratio(1); ok {
		t.Error("Ratio reported ok with a zero bound")
	}
}

// rapSlots sizes a flat supply series to cover the oracle horizon.
func rapSlots(cfg core.Config) int {
	last := 0
	for _, j := range cfg.Trace {
		if j.Submit > last {
			last = j.Submit
		}
	}
	return last + cfg.MaxOverrunSlots + 1
}

func TestCrashFaultsVoidTheFloor(t *testing.T) {
	cfg := testConfig(t)
	cfg.Faults.CrashMTBFHours = 500
	rep, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FloorNodes != 0 || rep.Floor.Wh() != 0 {
		t.Errorf("floor %v over %d nodes under a crash process, want voided", rep.Floor, rep.FloorNodes)
	}
	if rep.Jobs.Wh() <= 0 {
		t.Errorf("job demand should survive the crash gate, got %v", rep.Jobs)
	}
}

func TestUtilizationModelDropsJobDemand(t *testing.T) {
	cfg := testConfig(t)
	cfg.ModelUtilization = true
	rep, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs.Wh() != 0 {
		t.Errorf("job demand %v under the utilization model, want 0 (attribution unsound there)", rep.Jobs)
	}
	if rep.Floor.Wh() <= 0 {
		t.Error("floor should survive the utilization gate")
	}
}

func TestBatteryRaisesServed(t *testing.T) {
	cfg := testConfig(t)
	lean, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InfiniteBattery = true
	rich, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rich.Brown.Wh() > lean.Brown.Wh() {
		t.Errorf("infinite battery raised the bound: %v > %v", rich.Brown, lean.Brown)
	}
	if rich.Served.Wh() < lean.Served.Wh() {
		t.Errorf("infinite battery lowered served energy: %v < %v", rich.Served, lean.Served)
	}
}
