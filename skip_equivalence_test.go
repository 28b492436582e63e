package greenmatch

// Skip-equivalence suite: the simulator's event-driven slot skipping must
// be bit-exact. For every shipped scenario file — and for randomized
// chaos-storm fault schedules — a run with the fast path enabled and a run
// with Config.DisableSlotSkipping must produce identical Results AND
// byte-identical per-slot audit traces (compared by digest over the full
// JSONL trace, which serializes every energy flow, battery state, fleet
// count and SLA delta of every slot). FastSlots is the one diagnostic
// field allowed to differ; everything else is the contract.

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/workload"
)

// tracedRun executes cfg with the conservation auditor and a digesting
// JSONL trace sink attached, returning the result and the trace digest.
func tracedRun(t *testing.T, cfg core.Config) (*core.Result, [32]byte) {
	t.Helper()
	auditor := audit.NewAuditor()
	h := sha256.New()
	cfg.Observer = audit.Tee(auditor, audit.NewJSONL(h))
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("run failed (audit violations: %v): %v", auditor.Violations(), err)
	}
	if n := auditor.ViolationCount(); n != 0 {
		t.Fatalf("%d conservation violations: %v", n, auditor.Violations())
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return res, sum
}

// assertSkipEquivalent runs cfg with and without slot skipping and fails
// unless the Results (modulo FastSlots) and the full audit traces match.
func assertSkipEquivalent(t *testing.T, cfg core.Config) {
	t.Helper()
	cfg.DisableSlotSkipping = false
	fast, fastSum := tracedRun(t, cfg)
	cfg.DisableSlotSkipping = true
	slow, slowSum := tracedRun(t, cfg)
	if slow.FastSlots != 0 {
		t.Fatalf("full-pipeline run reported %d fast slots", slow.FastSlots)
	}
	t.Logf("fast path took %d of %d slots", fast.FastSlots, fast.Slots)
	slow.FastSlots = fast.FastSlots
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("results diverged between skip and full-pipeline runs:\nfast: %+v\nfull: %+v", fast, slow)
	}
	if fastSum != slowSum {
		t.Errorf("audit traces diverged between skip and full-pipeline runs (%x vs %x)", fastSum[:6], slowSum[:6])
	}
}

// TestSkipEquivalenceScenarios proves skip-equivalence on every shipped
// scenario file at golden scale. In -short mode (the CI race pass) it runs
// the reference and failure-storm scenarios only.
func TestSkipEquivalenceScenarios(t *testing.T) {
	files, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no scenario files found")
	}
	shortSet := map[string]bool{"reference": true, "failure-storm": true}
	for _, file := range files {
		file := file
		name := strings.TrimSuffix(filepath.Base(file), ".json")
		t.Run(name, func(t *testing.T) {
			if testing.Short() && !shortSet[name] {
				t.Skip("scenario subset in -short mode")
			}
			t.Parallel()
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scenario.Read(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := sc.Scaled(goldenScale).Compile()
			if err != nil {
				t.Fatal(err)
			}
			assertSkipEquivalent(t, cfg)
		})
	}
}

// TestSkipEquivalenceChaosStorm proves skip-equivalence under generated
// chaos fault schedules (crash storms, supply dropouts, battery faults,
// forecast corruption, random MTBF crashes) — the adversarial case for
// slot skipping, since structural fault events must break every
// fast-forward streak exactly where the full pipeline acts on them. The
// variants pair seeds with the arena's quiescent planners (EDF, k-choices,
// Cucumber), whose skip-eligibility claims must survive the same storms.
func TestSkipEquivalenceChaosStorm(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		policy sched.Policy
	}{
		{"A", 4242, nil}, // scenario default (GreenMatch)
		{"B", 4243, nil},
		{"edf", 4244, sched.EDF{}},
		{"kchoices", 4245, sched.KChoices{}},
		{"cucumber", 4246, sched.Cucumber{}},
	}
	if testing.Short() {
		// One default seed plus one new quiescent planner keeps the CI race
		// pass within its wall-clock budget.
		cases = []struct {
			name   string
			seed   int64
			policy sched.Policy
		}{cases[0], cases[4]}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := chaosConfig(t, c.seed)
			if c.policy != nil {
				cfg.Policy = c.policy
			}
			assertSkipEquivalent(t, cfg)
		})
	}
}

// chaosConfig is the small battery-equipped cluster the chaos suites
// (skip equivalence, recovery, oracle bounds) perturb: 8 nodes under the
// Baseline policy and the seed's random fault schedule. The seed drives
// the trace, the reads and the faults; the supply stays seed 1's.
func chaosConfig(t *testing.T, seed int64) core.Config {
	t.Helper()
	sc := scenario.Scenario{Seed: 1, Nodes: 8, Objects: 400, WorkloadScale: 0.08,
		AreaM2: 40, BatteryKWh: 10, ReadsPerSlot: 50, Policy: "baseline"}
	cfg, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Scaled(sc.WorkloadScale)
	gen.Seed = seed
	if cfg.Trace, err = workload.Generate(gen); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = seed
	cfg.Faults = fault.Generate(seed, fault.GenSpec{Slots: 200, Nodes: sc.Nodes, AllowMTBF: true})
	return cfg
}
