package solar

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/units"
)

// Panel describes a PV installation: total collecting area and the combined
// module+inverter conversion efficiency.
type Panel struct {
	// AreaM2 is the total panel area in square metres.
	AreaM2 float64
	// Efficiency is the module conversion efficiency (0..1). The Sanyo
	// HIP-240 modules used by the genre papers are ~17.3%.
	Efficiency float64
	// InverterEfficiency is the DC->AC conversion efficiency (0..1).
	InverterEfficiency float64
	// DeratingFactor folds in soiling, wiring and mismatch losses (0..1).
	DeratingFactor float64
}

// DefaultPanel returns a panel of the given area with the efficiency chain
// of a Sanyo HIP-240-class installation: 17.3% module efficiency, 94%
// inverter efficiency, 95% balance-of-system derating. A 1.38 m^2 module at
// these numbers peaks at ~240 W under 1000 W/m^2, matching the farm the
// genre papers measured.
func DefaultPanel(areaM2 float64) Panel {
	return Panel{AreaM2: areaM2, Efficiency: 0.173, InverterEfficiency: 0.94, DeratingFactor: 0.95}
}

// Validate reports a descriptive error when a field is out of range.
func (p Panel) Validate() error {
	if p.AreaM2 < 0 {
		return fmt.Errorf("solar: negative panel area %v", p.AreaM2)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"Efficiency", p.Efficiency}, {"InverterEfficiency", p.InverterEfficiency}, {"DeratingFactor", p.DeratingFactor}} {
		if f.v <= 0 || f.v > 1 {
			return fmt.Errorf("solar: %s = %v outside (0,1]", f.name, f.v)
		}
	}
	return nil
}

// Output converts an irradiance in W/m^2 into AC electrical power.
func (p Panel) Output(irradianceWm2 float64) units.Power {
	if irradianceWm2 <= 0 {
		return 0
	}
	return units.Power(irradianceWm2 * p.AreaM2 * p.Efficiency * p.InverterEfficiency * p.DeratingFactor)
}

// PeakPower returns the panel output under standard 1000 W/m^2 irradiance.
func (p Panel) PeakPower() units.Power { return p.Output(1000) }

// Weather is a per-slot stochastic cloud-attenuation process: a two-state
// (clear/cloudy) Markov chain whose cloudy state multiplies irradiance by a
// random factor. It reproduces the bursty day-to-day structure of real
// traces: whole cloudy spells rather than i.i.d. noise.
type Weather struct {
	// PClearToCloudy and PCloudyToClear are per-slot transition
	// probabilities of the Markov weather chain.
	PClearToCloudy float64
	PCloudyToClear float64
	// ClearFactor is the attenuation applied in the clear state (1 = none).
	ClearFactor float64
	// CloudyMean and CloudySpread parameterize the attenuation factor drawn
	// each cloudy slot (clamped to [0,1]).
	CloudyMean   float64
	CloudySpread float64

	cloudy bool
	stream *rng.Stream
}

// Profile is a named weather preset.
type Profile string

// Weather presets. Sunny approximates the mostly-sunny June week the genre
// papers replay; Mixed and Overcast provide the harder regimes; Winter is
// used together with a winter day-of-year for low-sun studies.
const (
	ProfileSunny    Profile = "sunny"
	ProfileMixed    Profile = "mixed"
	ProfileOvercast Profile = "overcast"
	ProfileWinter   Profile = "winter"
)

// NewWeather returns the stochastic weather process for a preset, seeded
// deterministically.
func NewWeather(p Profile, seed int64) (*Weather, error) {
	w := &Weather{ClearFactor: 1}
	switch p {
	case ProfileSunny:
		w.PClearToCloudy, w.PCloudyToClear = 0.04, 0.45
		w.CloudyMean, w.CloudySpread = 0.55, 0.15
	case ProfileMixed:
		w.PClearToCloudy, w.PCloudyToClear = 0.15, 0.25
		w.CloudyMean, w.CloudySpread = 0.40, 0.20
	case ProfileOvercast:
		w.PClearToCloudy, w.PCloudyToClear = 0.45, 0.08
		w.CloudyMean, w.CloudySpread = 0.25, 0.12
	case ProfileWinter:
		w.PClearToCloudy, w.PCloudyToClear = 0.25, 0.15
		w.CloudyMean, w.CloudySpread = 0.35, 0.15
	default:
		return nil, fmt.Errorf("solar: unknown weather profile %q", p)
	}
	w.stream = rng.New(seed, "solar-weather-"+string(p))
	return w, nil
}

// Step advances the weather chain one slot and returns the attenuation
// factor in [0,1] to apply to clear-sky irradiance for that slot.
func (w *Weather) Step() float64 {
	if w.cloudy {
		if w.stream.Bernoulli(w.PCloudyToClear) {
			w.cloudy = false
		}
	} else {
		if w.stream.Bernoulli(w.PClearToCloudy) {
			w.cloudy = true
		}
	}
	if !w.cloudy {
		return w.ClearFactor
	}
	return w.stream.BoundedBeta(w.CloudyMean, w.CloudySpread)
}
