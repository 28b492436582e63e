package greenmatch

import (
	"testing"

	"repro/scenarios"
)

// fastConfig shrinks the reference scenario for facade-level smoke tests:
// a tenth of the week on 6 nodes, 30 m^2 of PV, no battery, Baseline.
func fastConfig(t *testing.T) Config {
	t.Helper()
	sc, err := scenarios.Load("reference")
	if err != nil {
		t.Fatal(err)
	}
	sc.Nodes, sc.Objects, sc.WorkloadScale = 6, 300, 0.1
	sc.AreaM2, sc.BatteryKWh, sc.ReadsPerSlot = 30, 0, 20
	sc.Policy = "baseline"
	cfg, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestFacadeRun(t *testing.T) {
	cfg := fastConfig(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLA.Completed != len(cfg.Trace) {
		t.Fatalf("completed %d/%d", res.SLA.Completed, len(cfg.Trace))
	}
	if res.Energy.ConservationError() > 1 {
		t.Fatalf("conservation error %v", res.Energy.ConservationError())
	}
}

func TestFacadePolicies(t *testing.T) {
	for _, p := range []Policy{Baseline{}, SpinDown{}, DeferFraction{Fraction: 0.5}, GreenMatch{}} {
		cfg := fastConfig(t)
		cfg.Policy = p
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

func TestFacadeSimulatorIsSingleUse(t *testing.T) {
	sim, err := NewSimulator(fastConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBatterySpec(t *testing.T) {
	li, err := BatterySpecFor(LithiumIon)
	if err != nil || li.Efficiency != 0.85 {
		t.Fatalf("LI spec wrong: %+v, %v", li, err)
	}
	if _, err := BatterySpecFor("unknown"); err == nil {
		t.Fatal("unknown chemistry should error")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	if len(Experiments()) != 22 {
		t.Fatalf("want 22 experiments, got %d", len(Experiments()))
	}
	e, ok := ExperimentByID("E1")
	if !ok || e.ID != "E1" {
		t.Fatal("E1 lookup failed")
	}
}

func TestFacadeCostAndCarbon(t *testing.T) {
	cfg := fastConfig(t)
	cfg.RecordSeries = true
	cfg.BatteryCapacityWh = 5000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := BatterySpecFor(LithiumIon)
	bd, err := EvaluateCost(DefaultCostConfig(), res, spec, cfg.BatteryCapacityWh, 30)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total() <= 0 {
		t.Fatalf("cost total %v", bd.Total())
	}
	kg, err := CarbonFootprint(res, FlatIntensity{GramsPerKWh: 300})
	if err != nil {
		t.Fatal(err)
	}
	if kg <= 0 {
		t.Fatalf("carbon %v kg", kg)
	}
	d := DiurnalIntensity{BaseGramsPerKWh: 250, PeakGramsPerKWh: 450}
	if _, err := CarbonFootprint(res, d); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeScenario(t *testing.T) {
	sc, err := scenarios.Load("reference")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.Scaled(0.05).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}
