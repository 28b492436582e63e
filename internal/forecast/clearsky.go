package forecast

import (
	"repro/internal/solar"
	"repro/internal/units"
)

// ClearSky is the physics-based forecaster: it computes the deterministic
// clear-sky production curve of the installed farm from solar geometry and
// scales it by the recently observed attenuation (actual / clear-sky over
// the last day's daylight slots). It needs to know the farm's parameters —
// which an operator always does — and unlike the purely statistical models
// it predicts the *shape* of tomorrow exactly, leaving only the weather
// factor to estimate.
type ClearSky struct {
	// Farm describes the installation the forecaster models.
	Farm solar.FarmConfig
}

// clearSkyWindow is how many past slots ClearSky's attenuation estimate
// averages over.
const clearSkyWindow = 24

// Name implements Forecaster.
func (ClearSky) Name() string { return "clearsky" }

// clearSkyPower returns the farm's deterministic production for a slot.
func (c ClearSky) clearSkyPower(slot int) units.Power {
	day, hourOfDay := c.Farm.SlotTime(slot)
	irr := solar.ClearSkyIrradiance(c.Farm.LatitudeDeg, day, hourOfDay)
	return c.Farm.Panel.Output(irr)
}

// Predict implements Forecaster.
func (c ClearSky) Predict(actual solar.Provider, now, horizon int) []units.Power {
	return c.PredictInto(nil, actual, now, horizon)
}

// PredictInto implements IntoPredictor.
func (c ClearSky) PredictInto(dst []units.Power, actual solar.Provider, now, horizon int) []units.Power {
	// Estimate attenuation from observed daylight slots.
	peak := c.Farm.Panel.PeakPower()
	threshold := peak.Watts() * 0.1
	sumRatio, n := 0.0, 0
	for s := now - clearSkyWindow; s < now; s++ {
		if s < 0 {
			continue
		}
		cs := c.clearSkyPower(s).Watts()
		if cs < threshold {
			continue
		}
		sumRatio += actual.Power(s).Watts() / cs
		n++
	}
	att := 1.0 // optimistic before any daylight history
	if n > 0 {
		att = sumRatio / float64(n)
		if att < 0 {
			att = 0
		}
		if att > 1 {
			att = 1
		}
	}
	out := fill(dst, horizon)
	for k := 0; k < horizon; k++ {
		out[k] = c.clearSkyPower(now + k).Scale(att)
	}
	return out
}
