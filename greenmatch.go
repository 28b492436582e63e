// Package greenmatch is a from-scratch Go reproduction of "GreenMatch:
// Renewable-Aware Workload Scheduling for Massive Storage Systems"
// (IPPS/IPDPS 2016): a trace-driven simulator for a small/medium storage
// data center powered by on-site renewables (solar by default, wind as an
// extension), an energy-storage device, and the brown grid — plus the
// GreenMatch scheduler, which matches deferrable storage workloads to
// forecast renewable supply with a min-cost-flow assignment under a
// replica-coverage constraint on disk spin-down.
//
// This package is the stable facade over the internal packages; see
// README.md for a tour and DESIGN.md for the system inventory. A run is
// described by a scenario: load the shipped reference run from package
// repro/scenarios, edit its fields, compile it, and set on the Config only
// what a scenario cannot express (a Policy value, a custom Trace):
//
//	sc, err := scenarios.Load("reference") // 30 nodes, the reference week, 165.6 m^2 PV
//	if err != nil { ... }
//	cfg, err := sc.Scaled(0.25).Compile()
//	if err != nil { ... }
//	cfg.Policy = greenmatch.GreenMatch{BatteryAware: true}
//	res, err := greenmatch.Run(cfg)
//	fmt.Println(res.Energy.Brown, res.Energy.GreenUtilization())
//
// The experiment harness regenerates every figure and table of the
// evaluation:
//
//	for _, e := range greenmatch.Experiments() { ... e.Run(greenmatch.ExperimentParams{}) ... }
package greenmatch

import (
	"io"

	"repro/internal/audit"
	"repro/internal/battery"
	"repro/internal/carbon"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/forecast"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/workload"
)

// Core simulator types.
type (
	// Config assembles one simulation run; compile one from a Scenario.
	Config = core.Config
	// Result is the outcome of one run: energy account, SLA account,
	// battery account, disk stats, optional time series.
	Result = core.Result
	// Simulator executes one configured run.
	Simulator = core.Simulator
)

// Scheduling policies.
type (
	// Policy plans one slot at a time.
	Policy = sched.Policy
	// Baseline runs everything ASAP with FFD + over-commit (the ESD-only
	// reference point).
	Baseline = sched.Baseline
	// SpinDown is Baseline plus coverage-constrained disk spin-down.
	SpinDown = sched.SpinDown
	// DeferFraction opportunistically defers a fraction of deferrable jobs.
	DeferFraction = sched.DeferFraction
	// GreenMatch is the paper's forecast-driven matching scheduler; set
	// Fraction below 1 for the Mixed configuration.
	GreenMatch = sched.GreenMatch
	// EDF starts jobs in deadline order under the green-capacity budget.
	EDF = sched.EDF
	// KChoices probes K alternative start offsets per job and defers only
	// when a probe beats starting now.
	KChoices = sched.KChoices
	// Cucumber admits deferrable jobs only when enough confidence-scaled
	// future green slots cover them.
	Cucumber = sched.Cucumber
)

// Substrate types re-exported for configuration.
type (
	// Power is watts; Energy is watt-hours.
	Power = units.Power
	// Energy is watt-hours.
	Energy = units.Energy
	// BatterySpec holds ESD chemistry parameters.
	BatterySpec = battery.Spec
	// ClusterConfig describes the storage data center topology.
	ClusterConfig = storage.Config
	// SolarSeries is a per-slot renewable power trace.
	SolarSeries = solar.Series
	// Trace is a job population.
	Trace = workload.Trace
	// Forecaster predicts renewable supply.
	Forecaster = forecast.Forecaster
	// Table is a rendered result table (text/CSV).
	Table = metrics.Table
)

// Experiment harness types.
type (
	// Experiment is one reproducible figure/table of the evaluation.
	Experiment = expt.Experiment
	// ExperimentParams scales an experiment (Scale 1.0 = paper scale) and
	// bounds its sweep worker pool (Workers: 0 = one per core, 1 =
	// sequential).
	ExperimentParams = expt.Params
)

// Parallel sweep runner: fan independent simulation runs out across cores.
// Results come back in submission order; errors are aggregated per job,
// not fail-fast; worker panics are captured as errors.
type (
	// SweepJob is one unit of sweep work.
	SweepJob = runner.Job
	// SweepOutcome is one job's result slot.
	SweepOutcome = runner.Outcome
	// SweepOptions holds the pool size, its one field: Workers 0 = one
	// per core (runtime.GOMAXPROCS), 1 = run inline sequentially.
	SweepOptions = runner.Options
)

// Sweep runs every job through a bounded worker pool and returns the
// outcomes in submission order. A Config may be shared by concurrent
// jobs — Run treats it as read-only.
func Sweep(jobs []SweepJob, opts SweepOptions) []SweepOutcome {
	return runner.Sweep(jobs, opts)
}

// SweepErrs aggregates the failed outcomes of a sweep into one labeled
// error (nil when every job succeeded).
func SweepErrs(outs []SweepOutcome) error { return runner.Errs(outs) }

// ESD technologies (see BatterySpecFor).
const (
	LeadAcid       = battery.LeadAcid
	LithiumIon     = battery.LithiumIon
	Flywheel       = battery.Flywheel
	UltraCapacitor = battery.UltraCapacitor
)

// Run executes one simulation run.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// NewSimulator validates cfg and builds a single-use simulator.
func NewSimulator(cfg Config) (*Simulator, error) { return core.New(cfg) }

// BatterySpecFor returns the parameter preset for a chemistry.
func BatterySpecFor(c battery.Chemistry) (BatterySpec, error) { return battery.SpecFor(c) }

// Experiments returns the full evaluation registry (E1..E22) in order.
func Experiments() []Experiment { return expt.All() }

// ExperimentByID looks up one experiment ("E1".."E22").
func ExperimentByID(id string) (Experiment, bool) { return expt.ByID(id) }

// ArenaPolicies returns the full policy arena the oracle-ratio experiment
// (E22) and the property suite compare: one representative configuration
// of every scheduling genre.
func ArenaPolicies() []Policy { return expt.ArenaPolicies() }

// OracleReport is the offline-optimal oracle's solution for one scenario:
// a lower bound on the brown energy any schedule must draw, and the
// competitive-ratio denominator (see internal/oracle and docs/ARENA.md).
type OracleReport = oracle.Report

// SolveOracle computes the offline brown-energy lower bound for a config.
func SolveOracle(cfg Config) (OracleReport, error) { return oracle.Solve(cfg) }

// Audit layer: a structured per-slot trace of every energy flow and
// scheduler action, emitted by the simulator when Config.Observer is set
// (zero cost when nil), plus an energy-conservation auditor that turns
// bookkeeping bugs into hard run failures.
type (
	// Observer receives one SlotTrace per simulated slot and the run
	// totals at the end.
	Observer = audit.Observer
	// SlotTrace is the per-slot energy-flow and scheduler-action record.
	SlotTrace = audit.SlotTrace
	// RunTotals is the whole-run summary handed to every Observer at the end.
	RunTotals = audit.RunTotals
	// Auditor checks conservation, SoC, coverage and SLA invariants; its
	// EndRun error fails the Run. One Auditor per run — not shareable.
	Auditor = audit.Auditor
	// AuditViolation is one failed invariant with its term-by-term residual.
	AuditViolation = audit.Violation
)

// NewAuditor returns a conservation auditor.
func NewAuditor() *Auditor { return audit.NewAuditor() }

// NewJSONLSink streams slot traces as JSON lines; goroutine-safe, so one
// sink may be shared by concurrent runs.
func NewJSONLSink(w io.Writer) Observer { return audit.NewJSONL(w) }

// NewCSVSink streams slot traces as CSV rows (one run per sink).
func NewCSVSink(w io.Writer) Observer { return audit.NewCSV(w) }

// NewPromSink writes the run totals as Prometheus-style gauges at EndRun.
func NewPromSink(w io.Writer) Observer { return audit.NewProm(w) }

// TeeObservers fans each slot trace out to several observers.
func TeeObservers(obs ...Observer) Observer { return audit.Tee(obs...) }

// LabeledObserver stamps every trace with a run label before forwarding.
func LabeledObserver(run string, o Observer) Observer { return audit.Labeled(run, o) }

// Scenario is the JSON-serializable run description; see
// internal/scenario for the field documentation. Package repro/scenarios
// loads the shipped ones, "reference" among them.
type Scenario = scenario.Scenario

// CostConfig and CostBreakdown expose the economics layer.
type (
	CostConfig    = cost.Config
	CostBreakdown = cost.Breakdown
)

// DefaultCostConfig returns representative 2016-era prices.
func DefaultCostConfig() CostConfig { return cost.DefaultConfig() }

// EvaluateCost prices one run: grid bill + battery wear + amortized PV.
func EvaluateCost(c CostConfig, res *Result, spec BatterySpec, capacity Energy, areaM2 float64) (CostBreakdown, error) {
	return cost.Evaluate(c, res, spec, capacity, areaM2)
}

// CarbonIntensity models grid carbon per kWh; FlatIntensity and
// DiurnalIntensity are the built-in signals.
type (
	CarbonIntensity  = carbon.Intensity
	FlatIntensity    = carbon.Flat
	DiurnalIntensity = carbon.Diurnal
)

// CarbonFootprint integrates a run's brown draw (requires
// Config.RecordSeries) against an intensity signal, in kg CO2e.
func CarbonFootprint(res *Result, in CarbonIntensity) (float64, error) {
	return carbon.Footprint(res.Series, in)
}

// Fault injection (see internal/fault and docs/FAULTS.md): a declarative,
// seed-deterministic schedule of platform misbehaviour — crash storms,
// supply derating and dropouts, grid curtailment, battery fade and
// outages, forecast corruption — set on Config.Faults or in a scenario
// file's "faults" block.
type (
	// FaultConfig is the fault schedule of a run; the zero value injects
	// nothing.
	FaultConfig = fault.Config
	// FaultEvent is one scheduled fault window.
	FaultEvent = fault.Event
	// FaultKind names a fault event type.
	FaultKind = fault.Kind
	// DegradeAccount summarizes a run's degraded-mode exposure
	// (Result.Degrade).
	DegradeAccount = metrics.DegradeAccount
)

// The fault kinds a FaultEvent can schedule.
const (
	FaultNodeCrash       = fault.KindNodeCrash
	FaultCrashStorm      = fault.KindCrashStorm
	FaultPVDerate        = fault.KindPVDerate
	FaultPVDropout       = fault.KindPVDropout
	FaultGridCurtailment = fault.KindGridCurtailment
	FaultChargerOffline  = fault.KindChargerOffline
	FaultBatteryIdle     = fault.KindBatteryIdle
	FaultBatteryFade     = fault.KindBatteryFade
	FaultForecastBias    = fault.KindForecastBias
	FaultForecastNoise   = fault.KindForecastNoise
)

// GenerateFaults draws the random but fully seed-deterministic fault
// schedule the chaos harness uses; see fault.GenSpec for the knobs.
func GenerateFaults(seed int64, spec fault.GenSpec) FaultConfig {
	return fault.Generate(seed, spec)
}

// Live scheduler: the steppable form of the simulator that cmd/gmserve
// drives — submit jobs, inject faults and advance slots incrementally, and
// snapshot/restore full state for crash recovery (see docs/SERVICE.md).
type (
	// LiveScheduler advances one slot at a time and accepts live
	// submissions, supply overrides and fault injections between slots.
	LiveScheduler = core.Live
	// LiveSnapshot is a LiveScheduler's full serializable state; restoring
	// it resumes the run bit-identically.
	LiveSnapshot = core.LiveSnapshot
)

// NewLiveScheduler builds a live scheduler over a config. Any cfg.Trace
// jobs are pre-submitted, so an uninterrupted live run produces exactly
// Run's Result and audit trace.
func NewLiveScheduler(cfg Config) (*LiveScheduler, error) { return core.NewLive(cfg) }

// RestoreLiveScheduler rebuilds a live scheduler from a snapshot taken at a
// slot boundary; the resumed run is indistinguishable from one that never
// stopped.
func RestoreLiveScheduler(cfg Config, snap *LiveSnapshot) (*LiveScheduler, error) {
	return core.RestoreLive(cfg, snap)
}
