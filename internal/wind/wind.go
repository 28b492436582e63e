// Package wind models on-site wind-turbine electricity production. It is
// the "other renewable source" extension the GreenMatch line of work flags
// as future study: wind has a completely different production profile from
// solar (no diurnal zero, heavy-tailed gusts, long calm spells), which
// stresses schedulers tuned for day/night periodicity.
//
// The model is a temporally correlated Weibull wind-speed process passed
// through a standard turbine power curve (cut-in / rated / cut-out).
package wind

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/solar"
	"repro/internal/units"
)

// Turbine describes a wind turbine's power curve.
type Turbine struct {
	// RatedPower is the electrical output at and above rated speed.
	RatedPower units.Power
	// CutInSpeed (m/s) below which output is zero.
	CutInSpeed float64
	// RatedSpeed (m/s) at which output reaches RatedPower.
	RatedSpeed float64
	// CutOutSpeed (m/s) above which the turbine furls to zero for safety.
	CutOutSpeed float64
}

// DefaultTurbine returns a small commercial turbine sized for a
// small/medium data center: 10 kW rated, 3/12/25 m/s curve.
func DefaultTurbine() Turbine {
	return Turbine{RatedPower: 10000, CutInSpeed: 3, RatedSpeed: 12, CutOutSpeed: 25}
}

// Validate reports a descriptive error for an unphysical curve.
func (t Turbine) Validate() error {
	if t.RatedPower <= 0 {
		return fmt.Errorf("wind: non-positive rated power %v", t.RatedPower)
	}
	if !(0 < t.CutInSpeed && t.CutInSpeed < t.RatedSpeed && t.RatedSpeed < t.CutOutSpeed) {
		return fmt.Errorf("wind: speeds must satisfy 0 < cut-in(%v) < rated(%v) < cut-out(%v)",
			t.CutInSpeed, t.RatedSpeed, t.CutOutSpeed)
	}
	return nil
}

// Output converts a wind speed in m/s into electrical power using the
// standard piecewise curve: zero below cut-in and above cut-out, cubic
// growth between cut-in and rated, flat at rated between rated and cut-out.
func (t Turbine) Output(speed float64) units.Power {
	switch {
	case speed < t.CutInSpeed || speed >= t.CutOutSpeed:
		return 0
	case speed >= t.RatedSpeed:
		return t.RatedPower
	default:
		// Cubic interpolation on speed^3 between cut-in and rated.
		num := math.Pow(speed, 3) - math.Pow(t.CutInSpeed, 3)
		den := math.Pow(t.RatedSpeed, 3) - math.Pow(t.CutInSpeed, 3)
		return units.Power(t.RatedPower.Watts() * num / den)
	}
}

// FarmConfig describes a synthetic wind farm trace.
type FarmConfig struct {
	// Turbine is the per-unit power curve.
	Turbine Turbine
	// Count is the number of identical turbines.
	Count int
	// WeibullShape and WeibullScale parameterize the site's long-run
	// wind-speed distribution; k~2 (Rayleigh-like) with scale 7-9 m/s is a
	// reasonable onshore site.
	WeibullShape float64
	WeibullScale float64
	// Correlation in [0,1) is the AR(1) coefficient of the hour-to-hour
	// speed process; higher values give longer calm and windy spells.
	Correlation float64
	// Seed fixes the stochastic draw.
	Seed int64
	// Slots is the trace length.
	Slots int
}

// DefaultFarm returns one 10 kW turbine at a moderate onshore site for a
// one-week hourly trace.
func DefaultFarm() FarmConfig {
	return FarmConfig{
		Turbine:      DefaultTurbine(),
		Count:        1,
		WeibullShape: 2.0,
		WeibullScale: 8.0,
		Correlation:  0.85,
		Seed:         1,
		Slots:        168,
	}
}

// Generate produces a per-slot wind power trace. The speed process is an
// AR(1) blend between the previous speed and a fresh Weibull draw, which
// keeps the marginal distribution approximately Weibull while introducing
// the hour-scale persistence real wind exhibits.
func Generate(cfg FarmConfig) (solar.Series, error) {
	if err := cfg.Turbine.Validate(); err != nil {
		return nil, err
	}
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("wind: non-positive turbine count %d", cfg.Count)
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("wind: non-positive slot count %d", cfg.Slots)
	}
	if cfg.WeibullShape <= 0 || cfg.WeibullScale <= 0 {
		return nil, fmt.Errorf("wind: Weibull parameters must be positive")
	}
	if cfg.Correlation < 0 || cfg.Correlation >= 1 {
		return nil, fmt.Errorf("wind: correlation %v outside [0,1)", cfg.Correlation)
	}
	stream := rng.New(cfg.Seed, "wind-speed")
	out := make(solar.Series, cfg.Slots)
	speed := stream.Weibull(cfg.WeibullShape, cfg.WeibullScale)
	for i := 0; i < cfg.Slots; i++ {
		fresh := stream.Weibull(cfg.WeibullShape, cfg.WeibullScale)
		speed = cfg.Correlation*speed + (1-cfg.Correlation)*fresh
		if speed < 0 {
			speed = 0
		}
		out[i] = cfg.Turbine.Output(speed).Scale(float64(cfg.Count))
	}
	return out, nil
}

// EqualEnergy returns the supply of source ("solar", "wind" or "hybrid")
// at sol's total energy, so the sources compare at equal supply. Wind is
// the default farm over sol's slots, seeded by seed and scaled to sol's
// energy; hybrid is half of each; solar is sol itself.
func EqualEnergy(source string, sol solar.Series, seed int64) (solar.Series, error) {
	switch source {
	case "solar":
		return sol, nil
	case "wind", "hybrid":
	default:
		return nil, fmt.Errorf("wind: unknown source %q (want solar, wind or hybrid)", source)
	}
	cfg := DefaultFarm()
	cfg.Slots = sol.Slots()
	cfg.Seed = seed
	w, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	if tot := w.TotalEnergy(); tot > 0 {
		w = w.Scale(sol.TotalEnergy().Wh() / tot.Wh())
	}
	if source == "wind" {
		return w, nil
	}
	return Hybrid(sol.Scale(0.5), w.Scale(0.5)), nil
}

// Hybrid sums a solar and a wind trace slot-wise, producing the combined
// supply used by the hybrid-source experiment. The result has the length of
// the longer input; the shorter reads as zero beyond its end.
func Hybrid(a, b solar.Series) solar.Series {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(solar.Series, n)
	for i := 0; i < n; i++ {
		out[i] = a.Power(i) + b.Power(i)
	}
	return out
}
