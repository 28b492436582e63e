// Package scenario provides a declarative, JSON-serializable description of
// a complete GreenMatch simulation run — cluster, workload, supply, ESD,
// policy, forecaster — and its compilation into a core.Config. Scenario
// files make experiments shareable and reviewable: the exact run a result
// came from is a small text artifact, not a flag incantation.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/forecast"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/wind"
	"repro/internal/workload"
)

// Scenario is the serializable run description. Zero-valued fields take
// the documented defaults at Compile time.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Seed fixes every stochastic component.
	Seed int64 `json:"seed"`

	// Nodes, Objects and Replicas shape the storage cluster.
	Nodes    int `json:"nodes"`
	Objects  int `json:"objects"`
	Replicas int `json:"replicas,omitempty"`
	// HotTierNodes and HotShare optionally split the cluster into a hot
	// enterprise tier (holding the HotShare hottest objects) and a cold
	// archive tier with the remaining nodes and objects. Both must be set
	// together; HotTierNodes must leave at least one cold node.
	HotTierNodes int     `json:"hot_tier_nodes,omitempty"`
	HotShare     float64 `json:"hot_share,omitempty"`

	// WorkloadScale scales the reference week (1.0 = 787 web + 3148 batch
	// jobs plus maintenance classes).
	WorkloadScale float64 `json:"workload_scale"`

	// Source is "solar", "wind" or "hybrid"; AreaM2 sizes the PV farm;
	// Profile picks the weather regime; Turbines sizes the wind farm.
	Source   string  `json:"source,omitempty"`
	AreaM2   float64 `json:"area_m2"`
	Profile  string  `json:"profile,omitempty"`
	Turbines int     `json:"turbines,omitempty"`
	// SupplySlots is the supply trace length (default 504 = 3 weeks, so
	// deferred work still sees real sun during the drain).
	SupplySlots int `json:"supply_slots,omitempty"`

	// BatteryKWh and Chemistry configure the ESD ("lithium-ion" default).
	BatteryKWh float64 `json:"battery_kwh"`
	Chemistry  string  `json:"chemistry,omitempty"`
	// InfiniteBattery substitutes an ideal unbounded ESD.
	InfiniteBattery bool `json:"infinite_battery,omitempty"`

	// Policy is "baseline", "spindown", "defer", "greenmatch", "mixed",
	// "edf", "kchoices" or "cucumber"; Fraction applies to defer/mixed;
	// Solver ("flow" or "greedy") to greenmatch/mixed; K to kchoices;
	// Confidence to cucumber.
	Policy     string  `json:"policy"`
	Fraction   float64 `json:"fraction,omitempty"`
	Solver     string  `json:"solver,omitempty"`
	K          int     `json:"k,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`

	// Forecaster is "perfect", "persistence", "ma" or "ewma".
	Forecaster string `json:"forecaster,omitempty"`

	// ReadsPerSlot and ZipfTheta drive the storage read traffic.
	ReadsPerSlot float64 `json:"reads_per_slot"`
	ZipfTheta    float64 `json:"zipf_theta,omitempty"`

	// FailureMTBFHours and NodeRepairSlots are the legacy spelling of the
	// random crash process; Compile folds them into the fault schedule.
	FailureMTBFHours float64 `json:"failure_mtbf_hours,omitempty"`
	NodeRepairSlots  int     `json:"node_repair_slots,omitempty"`

	// Faults optionally declares a full fault-injection schedule: the
	// random crash process plus scheduled supply, battery, crash and
	// forecast fault windows (see internal/fault). It supersedes
	// FailureMTBFHours/NodeRepairSlots, which remain as the legacy
	// spelling of the crash process alone. Event slots are absolute and
	// are not rescaled by Scaled.
	Faults *fault.Config `json:"faults,omitempty"`

	// RecordSeries keeps the per-slot time series in the result.
	RecordSeries bool `json:"record_series,omitempty"`
}

// Scaled returns a proportionally shrunk (or grown) copy of the scenario:
// cluster size, workload, supply, ESD and read traffic all scale by f,
// subject to the floors the substrates require (4 nodes, 100 objects, one
// turbine, at least one node per tier). Scaled(1) is the identity. The
// golden regression tests and `gmtrace -kind run -scale` use it to run
// paper-scale scenario files quickly.
func (s Scenario) Scaled(f float64) Scenario {
	// f-1 == 0 is the exact identity-scale check in floateq's blessed
	// compare-against-zero form: Scaled(1) must return s unchanged.
	if f <= 0 || f-1 == 0 {
		return s
	}
	round := func(n int) int { return int(math.Round(float64(n) * f)) }
	nodes := s.Nodes
	if nodes == 0 {
		nodes = storage.DefaultConfig().Nodes
	}
	s.Nodes = max(4, round(nodes))
	objects := s.Objects
	if objects == 0 {
		objects = storage.DefaultConfig().Objects
	}
	s.Objects = max(100, round(objects))
	if s.HotTierNodes > 0 {
		s.HotTierNodes = max(1, round(s.HotTierNodes))
		if s.HotTierNodes >= s.Nodes {
			s.HotTierNodes = s.Nodes - 1
		}
	}
	ws := s.WorkloadScale
	if ws <= 0 {
		ws = 1
	}
	s.WorkloadScale = ws * f
	s.AreaM2 *= f
	if s.Turbines > 0 {
		s.Turbines = max(1, round(s.Turbines))
	}
	s.BatteryKWh *= f
	s.ReadsPerSlot *= f
	return s
}

// Read parses a scenario from JSON. Unknown fields are rejected so typos in
// scenario files fail loudly instead of silently running the default.
func Read(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	return s, nil
}

// Load reads the scenario file at path (see Read).
func Load(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close() // read-only handle
	return Read(f)
}

// Write serializes the scenario as indented JSON.
func (s Scenario) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Compile materializes the scenario into a validated core.Config. It
// starts from the zero Config, sets every field the scenario describes and
// leaves the rest to Config.ApplyDefaults, the one defaults table.
func (s Scenario) Compile() (core.Config, error) {
	var cfg core.Config
	cfg.Seed = s.Seed
	cfg.RecordSeries = s.RecordSeries
	if s.Faults != nil {
		cfg.Faults = *s.Faults
	}
	if s.FailureMTBFHours < 0 {
		return core.Config{}, fmt.Errorf("scenario: negative failure_mtbf_hours %v", s.FailureMTBFHours)
	}
	if s.NodeRepairSlots < 0 {
		return core.Config{}, fmt.Errorf("scenario: negative node_repair_slots %d", s.NodeRepairSlots)
	}
	// The legacy crash process applies only where the fault schedule sets
	// no crash MTBF, and its repair time then only fills an unset
	// crash_repair_slots. The fault engine reproduces the legacy seeded
	// draw sequence exactly and defaults an unset repair time to 24 slots.
	if s.FailureMTBFHours > 0 && cfg.Faults.CrashMTBFHours == 0 {
		cfg.Faults.CrashMTBFHours = s.FailureMTBFHours
		if cfg.Faults.CrashRepairSlots == 0 {
			cfg.Faults.CrashRepairSlots = s.NodeRepairSlots
		}
	}

	// Cluster.
	cl := storage.DefaultConfig()
	if s.Nodes > 0 {
		cl.Nodes = s.Nodes
	}
	if s.Objects > 0 {
		cl.Objects = s.Objects
	}
	if s.Replicas > 0 {
		cl.Replicas = s.Replicas
	}
	if s.HotTierNodes > 0 || s.HotShare > 0 {
		if s.HotTierNodes <= 0 || s.HotShare <= 0 || s.HotShare >= 1 {
			return core.Config{}, fmt.Errorf("scenario: hot_tier_nodes and hot_share must both be set (0 < share < 1)")
		}
		cold := cl.Nodes - s.HotTierNodes
		if cold < 1 {
			return core.Config{}, fmt.Errorf("scenario: hot tier %d leaves no cold nodes of %d", s.HotTierNodes, cl.Nodes)
		}
		cl.Tiers = []storage.Tier{
			{Name: "hot", Nodes: s.HotTierNodes, Server: power.R720(), Disk: power.EnterpriseHDD(), ObjectShare: s.HotShare},
			{Name: "cold", Nodes: cold, Server: power.R720(), Disk: power.ArchiveHDD(), ObjectShare: 1 - s.HotShare},
		}
	}
	cfg.Cluster = cl

	// Workload.
	scale := s.WorkloadScale
	if scale <= 0 {
		scale = 1
	}
	gen := workload.Scaled(scale)
	gen.Seed = s.Seed
	tr, err := workload.Generate(gen)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Trace = tr
	cfg.ReadsPerSlot = s.ReadsPerSlot
	if s.ZipfTheta > 0 {
		cfg.ZipfTheta = s.ZipfTheta
	}

	// Supply.
	slots := s.SupplySlots
	if slots <= 0 {
		slots = 24 * 21
	}
	profile := s.Profile
	if profile == "" {
		profile = "sunny"
	}
	scfg := solar.DefaultFarm(s.AreaM2)
	scfg.Profile = solar.Profile(profile)
	scfg.Slots = slots
	scfg.Seed = s.Seed
	sol, err := solar.Generate(scfg)
	if err != nil {
		return core.Config{}, err
	}
	switch src := s.Source; src {
	case "", "solar":
		cfg.Green = sol
	case "wind", "hybrid":
		wcfg := wind.DefaultFarm()
		if s.Turbines > 0 {
			wcfg.Count = s.Turbines
		}
		wcfg.Slots = slots
		wcfg.Seed = s.Seed
		w, err := wind.Generate(wcfg)
		if err != nil {
			return core.Config{}, err
		}
		if src == "wind" {
			cfg.Green = w
		} else {
			cfg.Green = wind.Hybrid(sol, w)
		}
	default:
		return core.Config{}, fmt.Errorf("scenario: unknown source %q", s.Source)
	}

	// ESD.
	chem := s.Chemistry
	if chem == "" {
		chem = string(battery.LithiumIon)
	}
	spec, err := battery.SpecFor(battery.Chemistry(chem))
	if err != nil {
		return core.Config{}, err
	}
	cfg.BatterySpec = spec
	if s.BatteryKWh < 0 || math.IsNaN(s.BatteryKWh) {
		return core.Config{}, fmt.Errorf("scenario: bad battery size %v", s.BatteryKWh)
	}
	cfg.BatteryCapacityWh = units.Energy(s.BatteryKWh * 1000)
	cfg.InfiniteBattery = s.InfiniteBattery

	// Forecaster.
	switch s.Forecaster {
	case "", "perfect":
		cfg.Forecaster = forecast.Perfect{}
	case "persistence":
		cfg.Forecaster = forecast.Persistence{}
	case "ma":
		cfg.Forecaster = forecast.MovingAverage{}
	case "ewma":
		cfg.Forecaster = forecast.EWMA{}
	default:
		return core.Config{}, fmt.Errorf("scenario: unknown forecaster %q", s.Forecaster)
	}

	// Policy.
	pol, err := PolicyFor(s.Policy, s.Fraction, s.Solver, s.K, s.Confidence)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Policy = pol

	cfg = cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// PolicyFor resolves a scenario policy name plus its tuning fields into a
// sched.Policy. It is the single mapping from serialized policy spellings
// to scheduler implementations, shared by Compile and the command-line
// tools (greenmatch -policy, gmchaos -policy). Fraction outside (0, 1]
// defaults to 1; K and Confidence at zero take the policy's own defaults.
// Solver must be "", "flow" or "greedy", whatever the policy.
func PolicyFor(name string, fraction float64, solver string, k int, confidence float64) (sched.Policy, error) {
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	switch sched.Solver(solver) {
	case "", sched.SolverFlow, sched.SolverGreedy:
	default:
		return nil, fmt.Errorf("scenario: unknown solver %q (want flow or greedy)", solver)
	}
	switch name {
	case "", "greenmatch":
		return sched.GreenMatch{Solver: sched.Solver(solver)}, nil
	case "mixed":
		return sched.GreenMatch{Fraction: fraction, Solver: sched.Solver(solver)}, nil
	case "baseline":
		return sched.Baseline{}, nil
	case "spindown":
		return sched.SpinDown{}, nil
	case "defer":
		return sched.DeferFraction{Fraction: fraction}, nil
	case "edf":
		return sched.EDF{}, nil
	case "kchoices":
		return sched.KChoices{K: k}, nil
	case "cucumber":
		return sched.Cucumber{Confidence: confidence}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown policy %q", name)
	}
}
