// Package expt is the GreenMatch experiment harness: it defines every
// figure and table of the reconstructed evaluation (see DESIGN.md §3) as
// grid points over the reference scenario, and a registry the CLI and the
// benchmark suite both drive.
//
// Every experiment is deterministic: same Params, same rows.
package expt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/scenarios"
)

// Params scales an experiment. Every grid point starts from
// scenarios/reference.json scaled by Scale: 1.0 is the paper-scale
// reference (30 nodes, the full reference week); smaller scales shrink the
// cluster, trace, panel areas and battery grids proportionally, preserving
// the qualitative shapes while running much faster.
type Params struct {
	// Scale is the proportional scenario size (default 1.0). A non-zero
	// Scale must pass scenario.CheckScale.
	Scale float64
	// Seed replaces the reference scenario's seed, so it drives the
	// workload and the weather of every grid point (default 1). E9 seeds
	// its synthetic instances with it; E22's arena scenarios keep their
	// own seeds.
	Seed int64
	// Workers bounds the sweep worker pool: 0 (the default) uses one
	// worker per core (runtime.GOMAXPROCS), 1 forces the historical
	// sequential execution, N > 1 uses N workers. Every
	// experiment produces identical tables at any worker count — grid
	// points are independent core.Run invocations and rows are assembled
	// from index-addressed result slots.
	Workers int
	// Audit attaches a fresh energy-conservation auditor (internal/audit)
	// to every grid-point run; any invariant violation fails the
	// experiment with a term-by-term residual in the error.
	Audit bool
	// AuditSink, when non-nil, additionally receives every slot trace of
	// every run, labeled "<experiment>/<grid point>". The sink is shared
	// across the sweep's concurrent workers and so must be goroutine-safe
	// (audit.NewJSONL is; the CSV sink and the Auditor are not — the
	// harness gives each run its own Auditor for exactly that reason).
	// The sink's lifetime belongs to whoever attached it: call CloseSink
	// on every exit path — experiment failures and cancellations included
	// — so a partial trace behind a buffered writer still lands on disk
	// as complete lines.
	AuditSink audit.Observer
}

// instrument attaches the audit observer chain to one labeled grid-point
// config. A no-op (nil Observer, zero simulator overhead) unless auditing
// or a sink was requested.
func (p Params) instrument(run string, cfg core.Config) core.Config {
	var obs []audit.Observer
	if p.Audit {
		obs = append(obs, audit.NewAuditor())
	}
	if p.AuditSink != nil {
		obs = append(obs, p.AuditSink)
	}
	if len(obs) > 0 {
		cfg.Observer = audit.Labeled(run, audit.Tee(obs...))
	}
	return cfg
}

// CloseSink flushes and releases the attached AuditSink (a no-op when none
// is attached or the sink holds no resources). Callers that attach a sink
// over a buffered writer must call this on every exit path, including
// failed runs — it is what makes an aborted sweep's partial trace valid.
func (p Params) CloseSink() error {
	return audit.Close(p.AuditSink)
}

func (p Params) scale() float64 {
	if p.Scale == 0 {
		return 1
	}
	return p.Scale
}

func (p Params) seed() int64 {
	if p.Seed == 0 {
		return 1
	}
	return p.Seed
}

// Experiment is one reproducible artifact of the evaluation.
type Experiment struct {
	// ID is the registry key ("E1".."E21").
	ID string
	// Title names the paper artifact the experiment reconstructs.
	Title string
	// Kind is "figure" or "table".
	Kind string
	// Run executes the experiment and returns its tables (a figure is a
	// long-form table of its series).
	Run func(p Params) ([]*metrics.Table, error)
}

// registry holds the experiments; All sorts by numeric ID so registration
// order (Go initializes package files in file-name order) cannot leak into
// the public ordering.
var registry []Experiment

// All returns every experiment in numeric ID order (E1, E2, ..., E10, ...).
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool {
		return experimentNumber(out[i].ID) < experimentNumber(out[j].ID)
	})
	return out
}

// experimentNumber extracts the numeric part of an "E<N>" id (0 on parse
// failure, which sorts malformed ids first and loudly).
func experimentNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "E"))
	if err != nil {
		return 0
	}
	return n
}

// byID indexes the registry for O(1) lookup. Built at registration, read
// only after package init completes.
var byID = map[string]Experiment{}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := byID[id]
	return e, ok
}

func register(e Experiment) {
	if _, dup := byID[e.ID]; dup {
		panic("expt: duplicate experiment id " + e.ID)
	}
	registry = append(registry, e)
	byID[e.ID] = e
}

// IdealAreaM2 is the paper-scale "sized" PV area used by the
// battery-sizing experiments: comfortably above E2's break-even so the
// battery, not the panels, is the binding resource.
const IdealAreaM2 = 250.0

// ScarceAreaM2 is 60% of the ideal area: the regime where solar cannot
// cover the workload and the scheduling-vs-storage trade-off is sharpest.
const ScarceAreaM2 = 150.0

// reference returns the run every grid point starts from: the embedded
// scenarios/reference.json (GreenMatch, a 40 kWh lithium-ion ESD, 165.6 m2
// of PV under sunny weather), scaled by p's scale and seeded by p's seed.
func (p Params) reference() (scenario.Scenario, error) {
	sc, err := scenarios.Load("reference")
	if err != nil {
		return scenario.Scenario{}, err
	}
	sc = sc.Scaled(p.scale())
	sc.Seed = p.seed()
	return sc, nil
}

// compile compiles the reference scenario after applying edit (nil for
// none).
func (p Params) compile(edit func(*scenario.Scenario)) (core.Config, error) {
	sc, err := p.reference()
	if err != nil {
		return core.Config{}, err
	}
	if edit != nil {
		edit(&sc)
	}
	return sc.Compile()
}

// kwh converts a paper-scale battery size to scaled Wh. A grid point sets
// it on the compiled Config rather than as battery_kwh, which would round
// through (kWh·scale)·1000 and move the last bit at some scales.
func (p Params) kwh(paperScaleKWh float64) units.Energy {
	return units.Energy(paperScaleKWh * 1000 * p.scale())
}

// steadyBrown sums brown energy after the first-day warm-up (the battery
// starts empty, so the first pre-dawn hours are unavoidably brown in every
// configuration; the sizing claims of the genre are about steady state).
func steadyBrown(res *core.Result) units.Energy {
	if res.Series == nil {
		return res.Energy.Brown
	}
	var e units.Energy
	for _, s := range res.Series.Samples {
		if s.Slot >= 24 {
			e += units.Energy(s.BrownW) // 1-hour slots: W == Wh
		}
	}
	return e
}

// steadyLost sums green energy lost in the fixed window [24, 168): the
// arrival week after warm-up. A fixed window is essential for fairness —
// policies that defer work run (and therefore meter production) for more
// slots, and sunlight falling after another policy's run already ended
// must not be charged against them.
func steadyLost(res *core.Result) units.Energy {
	if res.Series == nil {
		return res.Energy.GreenLost
	}
	var e units.Energy
	for _, s := range res.Series.Samples {
		if s.Slot >= 24 && s.Slot < 168 {
			e += units.Energy(s.GreenLostW) // 1-hour slots: W == Wh
		}
	}
	return e
}

// kwhGrid builds a battery-capacity grid in Wh: 0..maxKWh step stepKWh,
// scaled.
func kwhGrid(p Params, maxKWh, stepKWh float64) []units.Energy {
	var out []units.Energy
	for v := 0.0; v <= maxKWh+1e-9; v += stepKWh {
		out = append(out, p.kwh(v))
	}
	return out
}

// gridPoint is one cell of an experiment's parameter grid: a label for
// error reporting and a builder producing the point's Config. The builder
// runs inside the worker too, so trace/solar generation — a real fraction
// of small-scale runs — parallelizes along with the simulation.
type gridPoint struct {
	label string
	build func() (core.Config, error)
}

// refPoint is a grid point on the reference scenario: scen edits the
// scenario fields the point varies, the worker compiles it, and set edits
// the compiled Config for what no scenario field expresses (a sched.Policy
// value, a battery size in Wh, a power model). Either may be nil.
func (p Params) refPoint(label string, scen func(*scenario.Scenario), set func(*core.Config)) gridPoint {
	return gridPoint{label: label, build: func() (core.Config, error) {
		cfg, err := p.compile(scen)
		if err == nil && set != nil {
			set(&cfg)
		}
		return cfg, err
	}}
}

// point makes a gridPoint from a label and an already-compiled Config,
// for experiments whose points share one compiled scenario.
func point(label string, cfg core.Config) gridPoint {
	return gridPoint{label: label, build: func() (core.Config, error) { return cfg, nil }}
}

// sweep runs every grid point through the bounded worker pool and returns
// the results in submission order, so callers assemble table rows exactly
// as the historical nested loops did. Errors from all points are
// aggregated (labeled, not fail-fast) and wrapped with the experiment id.
func sweep(id string, p Params, points []gridPoint) ([]*core.Result, error) {
	jobs := make([]runner.Job, len(points))
	for i, pt := range points {
		jobs[i] = runner.Job{Label: pt.label, Run: func() (any, error) {
			cfg, err := pt.build()
			if err != nil {
				return nil, err
			}
			return core.Run(p.instrument(id+"/"+pt.label, cfg))
		}}
	}
	outs := runner.Sweep(jobs, runner.Options{Workers: p.Workers})
	if err := runner.Errs(outs); err != nil {
		return nil, fmt.Errorf("expt %s: %w", id, err)
	}
	results := make([]*core.Result, len(outs))
	for i, o := range outs {
		results[i] = o.Value.(*core.Result)
	}
	return results, nil
}
