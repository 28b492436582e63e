package scenario

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

// reference loads the shipped reference scenario at quarter scale.
func reference(t testing.TB) Scenario {
	t.Helper()
	s, err := Load(filepath.Join("..", "..", "scenarios", "reference.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s.Scaled(0.25)
}

func TestDefaultCompilesAndRuns(t *testing.T) {
	s := reference(t)
	s.WorkloadScale = 0.05 // keep the test fast
	cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "greenmatch" {
		t.Fatalf("policy %q", res.Policy)
	}
	if res.SLA.Completed == 0 {
		t.Fatal("nothing ran")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := reference(t)
	s.Policy = "mixed"
	s.Fraction = 0.5
	s.Chemistry = "lead-acid"
	s.FailureMTBFHours = 1000
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, back)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	_, err := Read(strings.NewReader(`{"name":"x","battery_kvh":10}`))
	if err == nil {
		t.Fatal("typo'd field should be rejected")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage should be rejected")
	}
}

func TestCompileErrors(t *testing.T) {
	mut := func(f func(*Scenario)) Scenario {
		s := reference(t)
		s.WorkloadScale = 0.05
		f(&s)
		return s
	}
	bad := []Scenario{
		mut(func(s *Scenario) { s.Source = "coal" }),
		mut(func(s *Scenario) { s.Policy = "magic" }),
		mut(func(s *Scenario) { s.Solver = "hungarian" }),
		mut(func(s *Scenario) { s.Solver = "flwo" }),
		mut(func(s *Scenario) { s.Forecaster = "astrology" }),
		mut(func(s *Scenario) { s.Chemistry = "potato" }),
		mut(func(s *Scenario) { s.Profile = "apocalypse" }),
		mut(func(s *Scenario) { s.BatteryKWh = -1 }),
		mut(func(s *Scenario) { s.Nodes = 1; s.Replicas = 100 }),
	}
	for i, s := range bad {
		if _, err := s.Compile(); err == nil {
			t.Errorf("case %d should fail: %+v", i, s)
		}
	}
}

func TestCompileAllPolicies(t *testing.T) {
	for _, pol := range []string{"baseline", "spindown", "defer", "greenmatch", "mixed"} {
		s := reference(t)
		s.WorkloadScale = 0.05
		s.Policy = pol
		s.Fraction = 0.5
		if _, err := s.Compile(); err != nil {
			t.Errorf("%s: %v", pol, err)
		}
	}
}

func TestCompileSources(t *testing.T) {
	for _, src := range []string{"solar", "wind", "hybrid"} {
		s := reference(t)
		s.WorkloadScale = 0.05
		s.Source = src
		s.Turbines = 2
		cfg, err := s.Compile()
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if cfg.Green.Slots() != 24*21 {
			t.Fatalf("%s: supply slots %d", src, cfg.Green.Slots())
		}
	}
}

func TestCompileDefaultsFillIn(t *testing.T) {
	s := Scenario{AreaM2: 10, ReadsPerSlot: 1, WorkloadScale: 0.05, Nodes: 4, Objects: 100}
	cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy.Name() != "greenmatch" {
		t.Errorf("default policy %q", cfg.Policy.Name())
	}
	if cfg.BatterySpec.Name != "lithium-ion" {
		t.Errorf("default chemistry %q", cfg.BatterySpec.Name)
	}
}

func TestFailureFieldsPropagate(t *testing.T) {
	s := reference(t)
	s.WorkloadScale = 0.05
	s.FailureMTBFHours = 777
	s.NodeRepairSlots = 5
	cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// The legacy fields fold into the fault schedule at compile time.
	if cfg.Faults.CrashMTBFHours != 777 || cfg.Faults.CrashRepairSlots != 5 {
		t.Fatalf("legacy failure fields not folded into fault schedule: %+v", cfg.Faults)
	}

	// The fault schedule's own crash process takes precedence: the legacy
	// MTBF applies only where faults.crash_mtbf_hours is 0, and the legacy
	// repair time only where faults.crash_repair_slots is 0.
	s.Faults = &fault.Config{CrashMTBFHours: 333}
	if cfg, err = s.Compile(); err != nil {
		t.Fatal(err)
	}
	if cfg.Faults.CrashMTBFHours != 333 {
		t.Errorf("faults.crash_mtbf_hours 333 overridden by the legacy field: %+v", cfg.Faults)
	}
	s.Faults = &fault.Config{CrashRepairSlots: 9}
	if cfg, err = s.Compile(); err != nil {
		t.Fatal(err)
	}
	if cfg.Faults.CrashMTBFHours != 777 || cfg.Faults.CrashRepairSlots != 9 {
		t.Errorf("faults.crash_repair_slots 9 overridden by the legacy field: %+v", cfg.Faults)
	}

	// A negative legacy value is still a compile error.
	s.Faults = nil
	bad := s
	bad.FailureMTBFHours = -1
	if _, err := bad.Compile(); err == nil {
		t.Error("negative failure_mtbf_hours compiled")
	}
	bad = s
	bad.NodeRepairSlots = -1
	if _, err := bad.Compile(); err == nil {
		t.Error("negative node_repair_slots compiled")
	}
}

func TestFaultSchedulePropagates(t *testing.T) {
	s := reference(t)
	s.WorkloadScale = 0.05
	s.Faults = &fault.Config{
		CrashMTBFHours: 900,
		Events: []fault.Event{
			{Kind: fault.KindPVDropout, At: 10, Duration: 3},
			{Kind: fault.KindForecastBias, At: 20, Duration: 5, Magnitude: 0.2},
		},
	}
	cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults.CrashMTBFHours != 900 || len(cfg.Faults.Events) != 2 {
		t.Fatalf("fault schedule lost in compile: %+v", cfg.Faults)
	}

	// An invalid schedule must fail compilation, not slip into the run.
	s.Faults = &fault.Config{Events: []fault.Event{{Kind: fault.KindBatteryFade, At: 0, Magnitude: 2}}}
	if _, err := s.Compile(); err == nil {
		t.Fatal("invalid fault schedule compiled without error")
	}

	// A node-crash target outside the compiled cluster must be rejected.
	s.Faults = &fault.Config{Events: []fault.Event{{Kind: fault.KindNodeCrash, At: 0, Nodes: []int{10_000}}}}
	if _, err := s.Compile(); err == nil {
		t.Fatal("out-of-cluster crash target compiled without error")
	}
}

func TestTieredScenario(t *testing.T) {
	s := reference(t)
	s.WorkloadScale = 0.05
	s.HotTierNodes = 3
	s.HotShare = 0.2
	cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Cluster.Tiers) != 2 {
		t.Fatalf("tiers = %d, want 2", len(cfg.Cluster.Tiers))
	}
	if cfg.Cluster.Tiers[0].Nodes != 3 || cfg.Cluster.Tiers[1].Nodes != 5 {
		t.Fatalf("tier split wrong: %+v", cfg.Cluster.Tiers)
	}
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	// Inconsistent tier fields fail loudly.
	bad := reference(t)
	bad.HotTierNodes = 3 // share missing
	if _, err := bad.Compile(); err == nil {
		t.Error("hot tier without share should fail")
	}
	bad = reference(t)
	bad.HotTierNodes = bad.Nodes // no cold nodes
	bad.HotShare = 0.2
	if _, err := bad.Compile(); err == nil {
		t.Error("hot tier consuming every node should fail")
	}
}
