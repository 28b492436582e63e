package fault

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/rng"
	"repro/internal/units"
)

// Crash is one node crash the engine ordered for the current slot.
type Crash struct {
	// Node is the victim's ID.
	Node int
	// RepairSlots is how long the node stays failed.
	RepairSlots int
}

// Engine is the per-run compiled form of a fault Config: the simulator asks
// it, slot by slot, which nodes crash, how much renewable supply survives,
// whether the battery is functional, and what forecast the scheduler is
// shown. An Engine is single-use and not safe for concurrent use (it owns
// rng streams), matching the Simulator it is embedded in.
//
//gm:statemirror State RestoreEngine
type Engine struct {
	cfg  Config
	seed int64 //gm:ephemeral compile-time parameter, re-supplied by the caller at restore

	// mtbf is the random crash process stream. Its name and draw discipline
	// — one Bernoulli per healthy powered node, in node order — reproduce
	// the pre-fault-engine failure_mtbf_hours path byte-for-byte.
	mtbf *rng.Stream
	// storm selects crash-storm victims; a separate stream so adding storm
	// events to a schedule never perturbs the MTBF draw sequence.
	storm *rng.Stream
}

// NewEngine compiles a validated Config for one run. Returns nil for a
// disabled config, so callers can use a nil check as the fast path.
func NewEngine(cfg Config, seed int64) *Engine {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.CrashRepairSlots <= 0 {
		cfg.CrashRepairSlots = 24
	}
	e := &Engine{cfg: cfg, seed: seed}
	if cfg.CrashMTBFHours > 0 {
		e.mtbf = rng.New(seed, "node-failures")
	}
	for _, ev := range cfg.Events {
		if ev.Kind == KindCrashStorm {
			e.storm = rng.New(seed, "fault-storm")
			break
		}
	}
	return e
}

// AddEvent appends a scheduled event to a running engine (live fault
// injection). The event must validate against the node count; a first
// crash-storm event lazily creates the storm stream, exactly as NewEngine
// would have, so a schedule grown live and a schedule compiled whole draw
// identical victim permutations.
func (e *Engine) AddEvent(ev Event, nodes int) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	if nodes > 0 && ev.Kind == KindNodeCrash {
		for _, n := range ev.Nodes {
			if n >= nodes {
				return fmt.Errorf("fault: node-crash target %d outside cluster of %d", n, nodes)
			}
		}
	}
	e.cfg.Events = append(e.cfg.Events, ev)
	if ev.Kind == KindCrashStorm && e.storm == nil {
		e.storm = rng.New(e.seed, "fault-storm")
	}
	return nil
}

// EngineState is the serializable mutable state of an Engine: the schedule
// (which live injection may have grown past the compiled Config) plus the
// positions of the two crash streams. Everything else the engine computes
// is a pure function of (Config, seed, slot).
type EngineState struct {
	Config     Config `json:"config"`
	MTBFDraws  uint64 `json:"mtbf_draws,omitempty"`
	StormDraws uint64 `json:"storm_draws,omitempty"`
}

// State captures the engine for checkpointing.
func (e *Engine) State() EngineState {
	st := EngineState{Config: e.cfg}
	if e.mtbf != nil {
		st.MTBFDraws = e.mtbf.Draws()
	}
	if e.storm != nil {
		st.StormDraws = e.storm.Draws()
	}
	return st
}

// RestoreEngine rebuilds an engine from a snapshot taken by State, with the
// same seed it was originally compiled with.
func RestoreEngine(st EngineState, seed int64) *Engine {
	e := NewEngine(st.Config, seed)
	if e == nil {
		return nil
	}
	if e.mtbf != nil {
		e.mtbf.Skip(st.MTBFDraws)
	}
	if e.storm != nil {
		e.storm.Skip(st.StormDraws)
	}
	return e
}

// Crashes returns the node crashes ordered for slot t. healthyPowered must
// list the currently healthy, powered node IDs in node order — the MTBF
// process draws one Bernoulli per entry in that order, which is the exact
// draw discipline of the historical failure path. Event-scheduled crashes
// (node-crash targets, crash-storm victims) follow; the returned set is
// de-duplicated, and callers must still skip victims that are already
// failed (an explicit event may name a node the MTBF process took down).
func (e *Engine) Crashes(t int, healthyPowered []int) []Crash {
	var out []Crash
	// Lazily allocated: most slots crash nothing, and the per-slot fault
	// phase is on the simulator's fast-forward hot path. Reads from the nil
	// map are fine; mark allocates on the first actual crash.
	var chosen map[int]bool
	mark := func(n int) {
		if chosen == nil {
			chosen = make(map[int]bool)
		}
		chosen[n] = true
	}
	if e.mtbf != nil {
		// A slot is one hour, so the hourly hazard is the slot's.
		pFail := 1 / e.cfg.CrashMTBFHours
		for _, n := range healthyPowered {
			if e.mtbf.Bernoulli(pFail) {
				out = append(out, Crash{Node: n, RepairSlots: e.cfg.CrashRepairSlots})
				mark(n)
			}
		}
	}
	for _, ev := range e.cfg.Events {
		if ev.At != t {
			continue
		}
		switch ev.Kind {
		case KindNodeCrash:
			for _, n := range ev.Nodes {
				if !chosen[n] {
					out = append(out, Crash{Node: n, RepairSlots: ev.duration()})
					mark(n)
				}
			}
		case KindCrashStorm:
			var candidates []int
			for _, n := range healthyPowered {
				if !chosen[n] {
					candidates = append(candidates, n)
				}
			}
			count := ev.Count
			if count > len(candidates) {
				count = len(candidates)
			}
			if count > 0 {
				perm := e.storm.Perm(len(candidates))
				for _, i := range perm[:count] {
					out = append(out, Crash{Node: candidates[i], RepairSlots: ev.duration()})
					mark(candidates[i])
				}
			}
		}
	}
	return out
}

// Supply returns the renewable power that actually reaches the facility at
// slot t given the nominal production: derating events multiply, dropouts
// zero, curtailment windows cap. Composition order cannot matter (all three
// are order-independent under min/product with a floor at zero).
func (e *Engine) Supply(t int, nominal units.Power) units.Power {
	p := nominal
	for _, ev := range e.cfg.Events {
		if !ev.activeAt(t) {
			continue
		}
		switch ev.Kind {
		case KindPVDerate:
			p = p.Scale(1 - ev.Magnitude)
		case KindPVDropout:
			p = 0
		case KindGridCurtailment:
			p = units.MinPower(p, units.Power(ev.CapW))
		}
	}
	return units.NonNegP(p)
}

// ChargeBlocked reports whether battery charging is unavailable at slot t
// (charger offline or forced-idle maintenance).
func (e *Engine) ChargeBlocked(t int) bool {
	for _, ev := range e.cfg.Events {
		if ev.activeAt(t) && (ev.Kind == KindChargerOffline || ev.Kind == KindBatteryIdle) {
			return true
		}
	}
	return false
}

// DischargeBlocked reports whether battery discharge is unavailable at
// slot t (forced-idle maintenance; an offline charger still discharges).
func (e *Engine) DischargeBlocked(t int) bool {
	for _, ev := range e.cfg.Events {
		if ev.activeAt(t) && ev.Kind == KindBatteryIdle {
			return true
		}
	}
	return false
}

// FadeFactor returns the battery capacity multiplier in effect at slot t:
// 1 with no fade, decreasing linearly across each battery-fade window and
// persisting at the faded level afterwards. Monotone non-increasing in t,
// never below zero.
func (e *Engine) FadeFactor(t int) float64 {
	f := 1.0
	for _, ev := range e.cfg.Events {
		if ev.Kind != KindBatteryFade || t < ev.At {
			continue
		}
		progress := float64(t-ev.At+1) / float64(ev.duration())
		if progress > 1 {
			progress = 1
		}
		f *= 1 - ev.Magnitude*progress
	}
	if f < 0 {
		f = 0
	}
	return f
}

// CorruptForecast returns the forecast the scheduler is shown when planning
// at slot t: the true prediction passed through any active bias and noise
// events. The input slice is never mutated; with no corruption active it is
// returned as-is. Noise is a stateless hash of (seed, absolute target slot),
// so the perturbation of a given future slot is stable across the planning
// slots that see it — a corrupted sensor, not per-read jitter.
func (e *Engine) CorruptForecast(t int, pred []units.Power) []units.Power {
	var bias float64
	noise := 0.0
	for _, ev := range e.cfg.Events {
		if !ev.activeAt(t) {
			continue
		}
		switch ev.Kind {
		case KindForecastBias:
			bias += ev.Magnitude
		case KindForecastNoise:
			if ev.Magnitude > noise {
				noise = ev.Magnitude
			}
		}
	}
	if bias == 0 && noise == 0 {
		return pred
	}
	out := make([]units.Power, len(pred))
	for k, p := range pred {
		f := 1 + bias
		if noise > 0 {
			u := hashUnit(e.seed, t+k)
			f *= 1 + noise*(2*u-1)
		}
		out[k] = units.NonNegP(p.Scale(f))
	}
	return out
}

// ActiveKinds returns the sorted kinds of scheduled events active at slot t
// (empty when only the MTBF process is configured).
func (e *Engine) ActiveKinds(t int) []string {
	seen := map[string]bool{}
	var out []string
	for _, ev := range e.cfg.Events {
		if ev.activeAt(t) && !seen[string(ev.Kind)] {
			seen[string(ev.Kind)] = true
			out = append(out, string(ev.Kind))
		}
	}
	sort.Strings(out)
	return out
}

// EventActive reports whether any scheduled event window covers slot t.
func (e *Engine) EventActive(t int) bool {
	for _, ev := range e.cfg.Events {
		if ev.activeAt(t) {
			return true
		}
	}
	return false
}

// hashUnit maps (seed, slot) to a deterministic uniform draw in [0,1).
func hashUnit(seed int64, slot int) float64 {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(slot)))
	h := fnv.New64a()
	_, _ = h.Write(buf[:])
	// 53 high bits -> [0,1), the usual float64 mantissa trick.
	return float64(h.Sum64()>>11) / (1 << 53)
}
