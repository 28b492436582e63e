// Package units provides the typed physical quantities used throughout the
// GreenMatch simulator: electrical power in watts and energy in watt-hours.
//
// The simulator is slot-based, so most conversions are of the form
// "power held constant over h hours" <-> "energy". Using distinct named
// types for Power and Energy makes it a compile-time error to, for example,
// add a power to an energy, which is the single most common class of bug in
// hand-rolled energy accounting code.
package units

import (
	"fmt"
	"math"
)

// Power is an instantaneous electrical power in watts (W).
type Power float64

// Energy is an amount of electrical energy in watt-hours (Wh).
type Energy float64

// Common scale constants. unitsafety's diagnostics tell code that adds a
// bare literal to a quantity to write one of these instead, so they stay
// whether or not some caller uses them today.
const (
	Watt     Power = 1           //lint:allow deadexport named by unitsafety's bare-literal diagnostic
	Kilowatt Power = 1000        //lint:allow deadexport named by unitsafety's bare-literal diagnostic
	Megawatt Power = 1000 * 1000 //lint:allow deadexport named by unitsafety's bare-literal diagnostic

	WattHour     Energy = 1           //lint:allow deadexport named by unitsafety's bare-literal diagnostic
	KilowattHour Energy = 1000        //lint:allow deadexport named by unitsafety's bare-literal diagnostic
	MegawattHour Energy = 1000 * 1000 //lint:allow deadexport named by unitsafety's bare-literal diagnostic
)

// Over returns the energy produced or consumed by holding power p constant
// for the given number of hours.
func (p Power) Over(hours float64) Energy {
	return Energy(float64(p) * hours)
}

// Rate returns the constant power that would produce energy e over the given
// number of hours. Rate panics if hours is zero or negative because a
// zero-length slot has no meaningful average power.
func (e Energy) Rate(hours float64) Power {
	if hours <= 0 {
		panic(fmt.Sprintf("units: Energy.Rate called with non-positive hours %v", hours))
	}
	return Power(float64(e) / hours)
}

// KWh reports e in kilowatt-hours.
func (e Energy) KWh() float64 { return float64(e) / 1000 }

// KW reports p in kilowatts.
//
//lint:allow deadexport named by unitsafety's raw-float diagnostic
func (p Power) KW() float64 { return float64(p) / 1000 }

// Wh reports e in watt-hours as a raw float. It is the blessed escape
// hatch for serialization and math/stdlib interop; gmlint's unitsafety
// analyzer flags ad-hoc float64(e) conversions so that every place a
// quantity sheds its unit is greppable by this name.
func (e Energy) Wh() float64 { return float64(e) }

// Watts reports p in watts as a raw float. See Energy.Wh for why this
// exists instead of ad-hoc float64 conversions.
func (p Power) Watts() float64 { return float64(p) }

// Scale returns e scaled by the dimensionless factor k (fleet sizes,
// derate factors, shares). Using Scale instead of converting through raw
// floats keeps the unit attached through the arithmetic.
func (e Energy) Scale(k float64) Energy { return Energy(float64(e) * k) }

// Scale returns p scaled by the dimensionless factor k.
func (p Power) Scale(k float64) Power { return Power(float64(p) * k) }

// String formats the power with an automatically chosen SI prefix.
func (p Power) String() string {
	v := float64(p)
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.3f MW", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.3f kW", v/1e3)
	default:
		return fmt.Sprintf("%.1f W", v)
	}
}

// String formats the energy with an automatically chosen SI prefix.
func (e Energy) String() string {
	v := float64(e)
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.3f MWh", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.3f kWh", v/1e3)
	default:
		return fmt.Sprintf("%.1f Wh", v)
	}
}

// MinPower returns the smaller of a and b.
func MinPower(a, b Power) Power {
	if a < b {
		return a
	}
	return b
}

// MaxPower returns the larger of a and b.
func MaxPower(a, b Power) Power {
	if a > b {
		return a
	}
	return b
}

// MinEnergy returns the smaller of a and b.
func MinEnergy(a, b Energy) Energy {
	if a < b {
		return a
	}
	return b
}

// NonNegE returns e, floored at zero. It exists because energy settlements
// subtract measured quantities and tiny negative residues from floating-point
// rounding must not propagate into accumulators.
func NonNegE(e Energy) Energy {
	if e < 0 {
		return 0
	}
	return e
}

// NonNegP returns p, floored at zero.
func NonNegP(p Power) Power {
	if p < 0 {
		return 0
	}
	return p
}

// ApproxEqual reports whether a and b differ by at most tol watt-hours.
//
//lint:allow deadexport named by floateq's diagnostic as the epsilon helper
func ApproxEqual(a, b Energy, tol float64) bool {
	return math.Abs(float64(a-b)) <= tol
}
