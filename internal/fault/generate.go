package fault

import "repro/internal/rng"

// GenSpec bounds the random fault schedules Generate draws for the chaos
// harness.
type GenSpec struct {
	// Slots is the nominal run horizon; events start within it.
	Slots int
	// Nodes is the cluster size (bounds crash-storm counts).
	Nodes int
	// AllowMTBF lets the generator also enable the random crash process.
	AllowMTBF bool
}

// maxGenEvents caps the event count of a generated schedule.
const maxGenEvents = 6

// Generate draws a random but fully deterministic fault schedule for the
// given seed: between 1 and maxGenEvents events with kind-appropriate
// magnitudes, all starting inside the horizon. The same (seed, spec) always
// yields the same schedule, which is what makes chaos runs reproducible
// from their seed alone. The result always passes Validate.
func Generate(seed int64, spec GenSpec) Config {
	if spec.Slots <= 0 {
		spec.Slots = 100
	}
	if spec.Nodes <= 0 {
		spec.Nodes = 8
	}
	r := rng.New(seed, "chaos-schedule")
	var cfg Config
	if spec.AllowMTBF && r.Bernoulli(0.4) {
		// Aggressive MTBFs (hundreds of hours) so crashes actually land
		// inside short chaos runs; short repairs so recovery is observable.
		cfg.CrashMTBFHours = r.Uniform(200, 2000)
		cfg.CrashRepairSlots = 2 + r.Intn(10)
	}
	n := 1 + r.Intn(maxGenEvents)
	for i := 0; i < n; i++ {
		at := r.Intn(spec.Slots)
		dur := 1 + r.Intn(12)
		var ev Event
		switch r.Intn(9) {
		case 0:
			ev = Event{Kind: KindCrashStorm, At: at, Duration: 1 + r.Intn(8),
				Count: 1 + r.Intn(max(1, spec.Nodes/3))}
		case 1:
			ev = Event{Kind: KindNodeCrash, At: at, Duration: 1 + r.Intn(8),
				Nodes: []int{r.Intn(spec.Nodes)}}
		case 2:
			ev = Event{Kind: KindPVDerate, At: at, Duration: dur,
				Magnitude: r.Uniform(0.2, 0.9)}
		case 3:
			ev = Event{Kind: KindPVDropout, At: at, Duration: dur}
		case 4:
			ev = Event{Kind: KindGridCurtailment, At: at, Duration: dur,
				CapW: r.Uniform(0, 3000)}
		case 5:
			ev = Event{Kind: KindChargerOffline, At: at, Duration: dur}
		case 6:
			ev = Event{Kind: KindBatteryIdle, At: at, Duration: 1 + r.Intn(6)}
		case 7:
			ev = Event{Kind: KindBatteryFade, At: at, Duration: dur,
				Magnitude: r.Uniform(0.05, 0.5)}
		default:
			if r.Bernoulli(0.5) {
				m := r.Uniform(-0.6, 0.8)
				if m == 0 {
					m = 0.3
				}
				ev = Event{Kind: KindForecastBias, At: at, Duration: dur, Magnitude: m}
			} else {
				ev = Event{Kind: KindForecastNoise, At: at, Duration: dur,
					Magnitude: r.Uniform(0.1, 0.6)}
			}
		}
		cfg.Events = append(cfg.Events, ev)
	}
	return cfg
}
