// Package core is the GreenMatch simulator: it binds the substrates —
// storage cluster, workload trace, renewable supply, battery, forecaster,
// scheduling policy — into a slot-based trace-driven simulation with full
// energy-flow accounting.
//
// Per slot the simulator: admits arrivals, promotes slack-exhausted
// deferrable jobs to mandatory, asks the policy for a plan, applies
// suspensions and starts, places jobs with FFD (+over-commit,
// +consolidation when requested), powers nodes and parks disks under the
// replica-coverage constraint, drives the Zipf read traffic, then settles
// the slot's energy in the fixed priority order
//
//	load <- green-direct, then battery discharge, then brown grid
//	surplus -> battery charge (efficiency-, rate- and DoD-limited), else lost
//
// and finally advances job progress. The run ends when all jobs have
// completed (or the overrun guard trips, counting stragglers as misses).
package core

import (
	"fmt"
	"math"

	"repro/internal/audit"
	"repro/internal/battery"
	"repro/internal/fault"
	"repro/internal/forecast"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workload"
)

// Config assembles one simulation run.
//
// A Config may be shared across concurrent Runs (the parallel sweep runner
// does exactly that): Run treats the Config and everything reachable from
// it — Trace, the Green provider, Tiers — as read-only. Policy and
// Forecaster implementations must be stateless planners for this to hold;
// every implementation shipped here is.
type Config struct {
	// SlotHours is the slot duration (default 1).
	SlotHours float64
	// Cluster is the storage data center topology.
	Cluster storage.Config
	// Trace is the job population (sorted by submit slot).
	Trace workload.Trace
	// Green is the renewable supply.
	Green solar.Provider
	// Forecaster predicts supply for the policy (default Perfect, matching
	// the genre's no-prediction-error assumption).
	Forecaster forecast.Forecaster
	// BatterySpec is the ESD chemistry (default lithium-ion).
	BatterySpec battery.Spec
	// BatteryCapacityWh is the nominal ESD size; zero means no ESD.
	BatteryCapacityWh units.Energy
	// InfiniteBattery overrides capacity with an ideal unbounded ESD (the
	// sizing experiments use it).
	InfiniteBattery bool
	// Policy is the scheduling policy under test.
	Policy sched.Policy
	// Overcommit is the resource over-commit factor for placement
	// (default 1.5, the "safe configuration" the genre derives from
	// utilization histories).
	Overcommit float64
	// ReadsPerSlot is the storage read traffic intensity (default 200).
	ReadsPerSlot float64
	// ZipfTheta is the read popularity skew (default 0.9).
	ZipfTheta float64
	// Seed drives the read-traffic randomness.
	Seed int64
	// MaxOverrunSlots bounds how far past the last arrival the simulation
	// may run to drain jobs (default 336).
	MaxOverrunSlots int
	// RecordSeries enables the per-slot time series in the result.
	RecordSeries bool
	// Faults is the declarative fault-injection schedule: the random crash
	// process plus scheduled supply, battery, crash and forecast fault
	// windows (see internal/fault). The zero value injects nothing.
	Faults fault.Config
	// Observer, when non-nil, receives one audit.SlotTrace per simulated
	// slot and the run totals at completion (see internal/audit). The trace
	// layer is free when nil: the simulator gathers nothing. An Observer
	// with mutable state (the Auditor, the CSV sink) must not be shared by
	// Configs run concurrently — give each run its own, or share only a
	// goroutine-safe sink (audit.JSONL). When the Observer is an
	// audit.RunObserver and its EndRun returns an error, Run fails with it —
	// this is how the conservation auditor turns a bookkeeping bug into a
	// hard run failure.
	Observer audit.Observer
	// DisableSlotSkipping forces the full per-slot pipeline on every slot,
	// disabling the event-driven fast path the simulator otherwise uses on
	// quiescent slots (empty queues, settled placement, no structural fault
	// change). Skipping is bit-exact by construction — both paths share the
	// same settlement code and RNG draw discipline — so this switch exists
	// for verification (the skip-equivalence suites and gmchaos's
	// full-pipeline twin run) and benchmarking, not correctness. Skipping
	// is also automatically disabled when the policy does not implement
	// sched.QuiescentPlanner or when ModelUtilization is on.
	DisableSlotSkipping bool
	// ModelUtilization enables the VM utilization model: jobs draw CPU at
	// their per-slot UtilAt factor instead of their full reservation.
	// Placement still provisions by reservation/over-commit (the genre's
	// "provision for peak" rule), but physical node overloads become
	// possible when over-committed actual demand exceeds the hardware —
	// they are resolved by forced migrations (or throttling when no node
	// has room), which is exactly the risk the over-commit sweep (E20)
	// quantifies. Off by default so the headline experiments match the
	// reservation-driven accounting of the genre.
	ModelUtilization bool
}

// The VM-management and planning constants every run uses.
const (
	// migrationCostWh is the energy charged per VM migration.
	migrationCostWh units.Energy = 10
	// suspendCostWh is the energy charged per job suspension: the VM's
	// state must be written out and later restored.
	suspendCostWh units.Energy = 2
	// perJobPowerW is the planning constant handed to policies: marginal
	// dynamic power of one job plus its amortized share of node idle power
	// at typical packing density.
	perJobPowerW units.Power = 25
)

// DefaultGreen returns the reference solar supply for the given panel
// area: the standard farm, but with the trace extended to three weeks so
// that jobs deferred past the one-week arrival horizon still see the real
// diurnal supply while the simulation drains (the physical sun does not
// stop shining when arrivals do).
func DefaultGreen(areaM2 float64) solar.Series {
	cfg := solar.DefaultFarm(areaM2)
	cfg.Slots = 24 * 21
	return solar.MustGenerate(cfg)
}

// DefaultConfig returns the reference scenario used across the experiment
// suite: the default cluster, the reference week trace, a sized solar farm,
// a Perfect forecaster, no battery, Baseline policy.
func DefaultConfig() Config {
	cfg := DefaultParams()
	cfg.Trace = workload.MustGenerate(workload.DefaultGen())
	cfg.Green = DefaultGreen(165.6)
	return cfg
}

// DefaultParams returns DefaultConfig without its generated inputs: no
// trace and no renewable supply. A caller that brings its own, as
// scenario.Compile does, starts here instead of generating a week it
// would discard.
func DefaultParams() Config {
	return Config{
		SlotHours:         1,
		Cluster:           storage.DefaultConfig(),
		Forecaster:        forecast.Perfect{},
		BatterySpec:       battery.MustSpec(battery.LithiumIon),
		BatteryCapacityWh: 0,
		Policy:            sched.Baseline{},
		Overcommit:        1.5,
		ReadsPerSlot:      200,
		ZipfTheta:         0.9,
		Seed:              1,
		MaxOverrunSlots:   336,
	}
}

// Validate reports a descriptive error for inconsistent parameters. It
// normalizes nothing; use ApplyDefaults for that.
func (c Config) Validate() error {
	if !(c.SlotHours > 0) || math.IsInf(c.SlotHours, 1) {
		return fmt.Errorf("core: slot hours %v must be positive and finite", c.SlotHours)
	}
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if err := c.Trace.Validate(); err != nil {
		return err
	}
	if c.Green == nil {
		return fmt.Errorf("core: nil green provider")
	}
	if c.Policy == nil {
		return fmt.Errorf("core: nil policy")
	}
	if err := c.BatterySpec.Validate(); err != nil {
		return err
	}
	if c.BatteryCapacityWh < 0 {
		return fmt.Errorf("core: negative battery capacity %v", c.BatteryCapacityWh)
	}
	if c.Overcommit < 1 {
		return fmt.Errorf("core: over-commit %v below 1", c.Overcommit)
	}
	if !(c.ReadsPerSlot >= 0) {
		return fmt.Errorf("core: read rate %v must be non-negative", c.ReadsPerSlot)
	}
	if !(c.ZipfTheta >= 0) {
		return fmt.Errorf("core: Zipf theta %v must be non-negative", c.ZipfTheta)
	}
	if c.MaxOverrunSlots < 0 {
		return fmt.Errorf("core: negative overrun %d", c.MaxOverrunSlots)
	}
	if err := c.Faults.Validate(c.Cluster.TotalNodes()); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// ApplyDefaults fills zero-valued optional fields with the documented
// defaults and returns the completed config.
func (c Config) ApplyDefaults() Config {
	if c.SlotHours == 0 {
		c.SlotHours = 1
	}
	if c.Forecaster == nil {
		c.Forecaster = forecast.Perfect{}
	}
	if c.BatterySpec.Name == "" {
		c.BatterySpec = battery.MustSpec(battery.LithiumIon)
	}
	if c.Overcommit == 0 {
		c.Overcommit = 1.5
	}
	if c.ZipfTheta == 0 {
		c.ZipfTheta = 0.9
	}
	if c.MaxOverrunSlots == 0 {
		c.MaxOverrunSlots = 336
	}
	return c
}
