package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// builtin is the spec of a plain `gmchaos` invocation.
var builtin = runSpec{scale: 0.08, slots: 200}

func TestChaosScenarioBuiltin(t *testing.T) {
	sc, cfg, err := chaosScenario(1000, builtin)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 1000 || cfg.Seed != 1000 {
		t.Errorf("seed not applied: scenario %d, config %d", sc.Seed, cfg.Seed)
	}
	if n := cfg.Cluster.TotalNodes(); n != 8 {
		t.Errorf("built-in cluster has %d nodes, want 8", n)
	}
	if got := cfg.Policy.Name(); got != "greenmatch" {
		t.Errorf("built-in policy %q, want greenmatch", got)
	}
	want := fault.Generate(1000, fault.GenSpec{Slots: 200, Nodes: 8, AllowMTBF: true})
	if sc.Faults == nil || !reflect.DeepEqual(*sc.Faults, want) || !reflect.DeepEqual(cfg.Faults, want) {
		t.Errorf("built-in run does not carry the seed's generated schedule")
	}

	sp := builtin
	sp.policy = "baseline"
	if _, cfg, err = chaosScenario(1000, sp); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Policy.Name(); got != "baseline" {
		t.Errorf("-policy baseline ran %q", got)
	}
}

// TestChaosScenarioKeepsFileFaults: a scenario file that declares a fault
// schedule runs exactly that schedule.
func TestChaosScenarioKeepsFileFaults(t *testing.T) {
	file, err := scenario.Load("../../scenarios/grid-brownout.json")
	if err != nil {
		t.Fatal(err)
	}
	if file.Faults == nil || !file.Faults.Enabled() {
		t.Fatal("grid-brownout.json no longer declares faults")
	}
	_, cfg, err := chaosScenario(1001, runSpec{scenFile: "../../scenarios/grid-brownout.json", slots: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Faults, *file.Faults) {
		t.Errorf("file faults replaced:\n got %+v\nwant %+v", cfg.Faults, *file.Faults)
	}
}

// TestChaosScenarioLegacyCrashProcess: failure-storm.json spells its fault
// process as failure_mtbf_hours, so nothing is generated on top of it, in
// batch and -serve mode alike.
func TestChaosScenarioLegacyCrashProcess(t *testing.T) {
	sc, cfg, err := chaosScenario(1002, runSpec{scenFile: "../../scenarios/failure-storm.json", slots: 200})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Faults != nil {
		t.Errorf("a schedule was generated over the legacy crash process: %+v", *sc.Faults)
	}
	want := fault.Config{CrashMTBFHours: 500, CrashRepairSlots: 24}
	if !reflect.DeepEqual(cfg.Faults, want) {
		t.Errorf("faults %+v, want only the scenario's crash process %+v", cfg.Faults, want)
	}
}

// TestChaosScenarioSchedule: -schedule replaces the scenario's faults, the
// legacy crash process included, and a schedule naming a node outside the
// cluster is rejected.
func TestChaosScenarioSchedule(t *testing.T) {
	storm := fault.Config{Events: []fault.Event{{Kind: fault.KindNodeCrash, At: 3, Duration: 2, Nodes: []int{7}}}}
	_, cfg, err := chaosScenario(1003, runSpec{scenFile: "../../scenarios/failure-storm.json", slots: 200, sched: &storm})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Faults, storm) {
		t.Errorf("faults %+v, want the -schedule %+v", cfg.Faults, storm)
	}

	outside := fault.Config{Events: []fault.Event{{Kind: fault.KindNodeCrash, At: 3, Duration: 2, Nodes: []int{8}}}}
	sp := builtin
	sp.sched = &outside
	if _, _, err := chaosScenario(1003, sp); err == nil {
		t.Error("a schedule crashing node 8 of an 8-node cluster was accepted")
	}
	if _, err := chaosSeed(1003, sp); err == nil {
		t.Error("chaosSeed ran a schedule naming a node outside the cluster")
	}
}

// TestServeCompilesBatchConfig: the scenario -serve posts to gmserve's
// /v1/init compiles, after the JSON round trip, to the config batch mode
// runs for the same seed.
func TestServeCompilesBatchConfig(t *testing.T) {
	for _, sp := range []runSpec{builtin, {scenFile: "../../scenarios/failure-storm.json", slots: 200}} {
		sc, batch, err := chaosScenario(1004, sp)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{"scenario": sc})
		if err != nil {
			t.Fatal(err)
		}
		var req serve.InitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		live, err := req.Scenario.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, batch) {
			t.Errorf("%s: the served scenario compiles to a different config than batch mode", sc.Name)
		}
	}
}

// TestChaosSweepSeedOrder: a parallel sweep comes back clean with seed i's
// outcome at index i, equal to running that seed alone.
func TestChaosSweepSeedOrder(t *testing.T) {
	outs := chaosSweep(1000, 4, 2, builtin)
	if len(outs) != 4 {
		t.Fatalf("%d outcomes, want 4", len(outs))
	}
	for i, o := range outs {
		seed := int64(1000 + i)
		if o.Err != nil {
			t.Fatalf("seed %d: %v", seed, o.Err)
		}
		if want := fmt.Sprintf("seed %d", seed); o.Label != want {
			t.Errorf("outcome %d labelled %q, want %q", i, o.Label, want)
		}
		alone, err := chaosSeed(seed, builtin)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o.Value.(*core.Result), alone) {
			t.Errorf("outcome %d is not seed %d's result", i, seed)
		}
	}
}

// TestChaosSweepReportsErrors: a seed that fails reports its own error at
// its own index; the sweep does not stop at the first failure.
func TestChaosSweepReportsErrors(t *testing.T) {
	sp := builtin
	sp.policy = "magic"
	for i, o := range chaosSweep(1000, 2, 2, sp) {
		if o.Err == nil || !strings.Contains(o.Err.Error(), "unknown policy") {
			t.Errorf("seed %d: got %v, want the unknown-policy error", 1000+i, o.Err)
		}
	}
}
