// Package fault is the deterministic fault-injection subsystem of the
// GreenMatch simulator. A fault schedule describes when and how the
// platform misbehaves — node crash storms, PV inverter derating and
// dropouts, grid-curtailment windows, battery charger outages, capacity
// fade, forced-idle maintenance, and forecast corruption — as a declarative,
// JSON-serializable Config. The per-run Engine compiles a Config (plus the
// run's seed) into per-slot queries the simulator consults while settling
// each slot.
//
// Design rules:
//
//   - Deterministic: every stochastic component (the MTBF crash process,
//     crash-storm victim selection, forecast noise) derives from the run
//     seed via named rng streams or stateless hashing, so the same seed
//     always produces the same fault sequence and the same Result bytes.
//   - Conservative by construction: faults only remove capability (supply,
//     capacity, battery function) or corrupt information (forecasts); the
//     energy-settlement identities the audit layer asserts hold unchanged,
//     which is what lets the chaos harness require every random fault
//     schedule to be audit-clean.
//   - Shareable: Config is a value with no mutable state, safe to share
//     across concurrent runs; all per-run state lives in the Engine.
package fault

import "fmt"

// Kind names a fault event type.
type Kind string

// Supported fault kinds.
const (
	// KindNodeCrash crashes the listed nodes at the event start; they stay
	// failed for Duration slots (their repair time).
	KindNodeCrash Kind = "node-crash"
	// KindCrashStorm crashes Count randomly chosen healthy nodes at the
	// event start (seeded, deterministic), each repaired after Duration.
	KindCrashStorm Kind = "crash-storm"
	// KindPVDerate multiplies renewable production by (1 - Magnitude)
	// during the window: partial inverter failure, soiling, partial
	// shading. Magnitude in (0,1].
	KindPVDerate Kind = "pv-derate"
	// KindPVDropout zeroes renewable production during the window: full
	// inverter or feed failure.
	KindPVDropout Kind = "pv-dropout"
	// KindGridCurtailment caps renewable production at CapW watts during
	// the window: the grid operator refuses excess feed-in.
	KindGridCurtailment Kind = "grid-curtailment"
	// KindChargerOffline blocks battery charging during the window;
	// discharge still works. Surplus green energy is lost.
	KindChargerOffline Kind = "charger-offline"
	// KindBatteryIdle forces the battery idle (no charge, no discharge)
	// during the window: maintenance, BMS lockout.
	KindBatteryIdle Kind = "battery-idle"
	// KindBatteryFade permanently fades battery capacity by Magnitude
	// (fraction of nominal), applied linearly over the window and
	// persisting afterwards. Magnitude in (0,1].
	KindBatteryFade Kind = "battery-fade"
	// KindForecastBias multiplies every forecast the scheduler sees by
	// (1 + Magnitude) during the window (Magnitude may be negative, >= -1):
	// systematic optimism or pessimism injected between the forecaster and
	// the policy. Actual production is untouched.
	KindForecastBias Kind = "forecast-bias"
	// KindForecastNoise perturbs each forecast entry by a deterministic
	// multiplicative noise of amplitude Magnitude (uniform in
	// [1-Magnitude, 1+Magnitude], clamped at zero) during the window.
	KindForecastNoise Kind = "forecast-noise"
)

// kinds lists every valid Kind, in documentation order.
var kinds = []Kind{
	KindNodeCrash, KindCrashStorm, KindPVDerate, KindPVDropout,
	KindGridCurtailment, KindChargerOffline, KindBatteryIdle,
	KindBatteryFade, KindForecastBias, KindForecastNoise,
}

// Event is one scheduled fault window.
type Event struct {
	// Kind selects the fault type.
	Kind Kind `json:"kind"`
	// At is the first slot of the window.
	At int `json:"at"`
	// Duration is the window length in slots (default 1). For crash kinds
	// it doubles as the per-node repair time.
	Duration int `json:"duration,omitempty"`
	// Magnitude is the kind-specific severity: derate fraction, fade
	// fraction, forecast bias, noise amplitude.
	Magnitude float64 `json:"magnitude,omitempty"`
	// Nodes lists the crash targets of a node-crash event.
	Nodes []int `json:"nodes,omitempty"`
	// Count is the victim count of a crash-storm event.
	Count int `json:"count,omitempty"`
	// CapW is the production ceiling of a grid-curtailment event, in watts.
	CapW float64 `json:"cap_w,omitempty"`
}

// duration returns the effective window length (>= 1).
func (e Event) duration() int {
	if e.Duration <= 0 {
		return 1
	}
	return e.Duration
}

// activeAt reports whether slot t falls inside the event window.
func (e Event) activeAt(t int) bool {
	return t >= e.At && t < e.At+e.duration()
}

// Validate reports a descriptive error for an inconsistent event.
func (e Event) Validate() error {
	known := false
	for _, k := range kinds {
		if e.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("fault: unknown kind %q", e.Kind)
	}
	if e.At < 0 {
		return fmt.Errorf("fault: %s at negative slot %d", e.Kind, e.At)
	}
	if e.Duration < 0 {
		return fmt.Errorf("fault: %s negative duration %d", e.Kind, e.Duration)
	}
	switch e.Kind {
	case KindNodeCrash:
		if len(e.Nodes) == 0 {
			return fmt.Errorf("fault: node-crash needs target nodes")
		}
		for _, n := range e.Nodes {
			if n < 0 {
				return fmt.Errorf("fault: node-crash target %d negative", n)
			}
		}
	case KindCrashStorm:
		if e.Count <= 0 {
			return fmt.Errorf("fault: crash-storm needs count >= 1, got %d", e.Count)
		}
	case KindPVDerate:
		if e.Magnitude <= 0 || e.Magnitude > 1 {
			return fmt.Errorf("fault: pv-derate magnitude %v outside (0,1]", e.Magnitude)
		}
	case KindGridCurtailment:
		if e.CapW < 0 {
			return fmt.Errorf("fault: grid-curtailment cap %v negative", e.CapW)
		}
	case KindBatteryFade:
		if e.Magnitude <= 0 || e.Magnitude > 1 {
			return fmt.Errorf("fault: battery-fade magnitude %v outside (0,1]", e.Magnitude)
		}
	case KindForecastBias:
		if e.Magnitude < -1 {
			return fmt.Errorf("fault: forecast-bias magnitude %v below -1", e.Magnitude)
		}
		if e.Magnitude == 0 {
			return fmt.Errorf("fault: forecast-bias magnitude must be non-zero")
		}
	case KindForecastNoise:
		if e.Magnitude <= 0 {
			return fmt.Errorf("fault: forecast-noise amplitude %v must be positive", e.Magnitude)
		}
	}
	return nil
}

// Config is the declarative fault schedule of a run: a random crash process
// plus explicit fault-event windows. The zero value injects nothing.
type Config struct {
	// CrashMTBFHours enables the random node-crash process: each powered
	// healthy node crashes with probability 1/MTBF per (one-hour) slot. Zero
	// disables. A scenario's legacy failure_mtbf_hours folds into it,
	// with the same seeded draw sequence.
	CrashMTBFHours float64 `json:"crash_mtbf_hours,omitempty"`
	// CrashRepairSlots is the repair time of MTBF-process crashes
	// (default 24 when the process is enabled).
	CrashRepairSlots int `json:"crash_repair_slots,omitempty"`
	// Events are the scheduled fault windows.
	Events []Event `json:"events,omitempty"`
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.CrashMTBFHours > 0 || len(c.Events) > 0
}

// Validate reports a descriptive error for an inconsistent schedule.
// nodes bounds explicit crash targets when positive.
func (c Config) Validate(nodes int) error {
	if c.CrashMTBFHours < 0 {
		return fmt.Errorf("fault: negative crash MTBF %v", c.CrashMTBFHours)
	}
	if c.CrashRepairSlots < 0 {
		return fmt.Errorf("fault: negative crash repair slots %d", c.CrashRepairSlots)
	}
	for i, e := range c.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("fault: event %d: %w", i, err)
		}
		if nodes > 0 && e.Kind == KindNodeCrash {
			for _, n := range e.Nodes {
				if n >= nodes {
					return fmt.Errorf("fault: event %d: node-crash target %d outside cluster of %d", i, n, nodes)
				}
			}
		}
	}
	return nil
}

// ActiveWithin reports whether any scheduled event window intersects
// [0, slots). It ignores the MTBF process (whether that fires is a draw,
// not a schedule); the chaos harness uses it together with the run's
// observed crash count to predict whether degraded-mode metrics must be
// non-zero.
func (c Config) ActiveWithin(slots int) bool {
	for _, e := range c.Events {
		if e.At < slots {
			return true
		}
	}
	return false
}
