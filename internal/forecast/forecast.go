// Package forecast provides the short-horizon renewable-production
// forecasters GreenMatch plans against.
//
// The genre papers assume an error-free 1-slot-ahead prediction; this
// package provides that Perfect oracle plus the realistic estimators used
// for the forecast-ablation experiment (persistence, k-day moving average,
// per-hour EWMA), all of which exploit the strong diurnal periodicity of
// solar production by predicting each hour-of-day from the same hour on
// previous days.
package forecast

import (
	"fmt"
	"math"

	"repro/internal/solar"
	"repro/internal/units"
)

// Forecaster predicts future supply from past observations. Implementations
// must only consult actual.Power(s) for s < now — the simulator relies on
// this causality to keep results honest — except Perfect, which is the
// explicit oracle baseline.
type Forecaster interface {
	// Name identifies the forecaster in reports.
	Name() string
	// Predict returns estimated power for slots now..now+horizon-1.
	Predict(actual solar.Provider, now, horizon int) []units.Power
}

// IntoPredictor is the allocation-free variant of Forecaster that per-slot
// callers probe for: PredictInto fills a caller-owned buffer instead of
// allocating a fresh slice on every call. Every forecaster in this package
// implements it; the simulator type-asserts once at construction and falls
// back to Predict for custom forecasters that do not.
type IntoPredictor interface {
	// PredictInto writes estimated power for slots now..now+horizon-1 into
	// dst (reusing its backing array when cap(dst) >= horizon) and returns
	// the filled slice of length horizon.
	PredictInto(dst []units.Power, actual solar.Provider, now, horizon int) []units.Power
}

// fill resizes dst to horizon, reusing its backing array when possible,
// with every element zeroed.
func fill(dst []units.Power, horizon int) []units.Power {
	if cap(dst) < horizon {
		return make([]units.Power, horizon)
	}
	dst = dst[:horizon]
	clear(dst)
	return dst
}

// Perfect is the error-free oracle the genre papers assume.
type Perfect struct{}

// Name implements Forecaster.
func (Perfect) Name() string { return "perfect" }

// Predict implements Forecaster by reading the future directly.
func (p Perfect) Predict(actual solar.Provider, now, horizon int) []units.Power {
	return p.PredictInto(nil, actual, now, horizon)
}

// PredictInto implements IntoPredictor.
func (Perfect) PredictInto(dst []units.Power, actual solar.Provider, now, horizon int) []units.Power {
	out := fill(dst, horizon)
	for k := 0; k < horizon; k++ {
		out[k] = actual.Power(now + k)
	}
	return out
}

// period is the seasonality the statistical forecasters exploit, in
// slots: one day of hourly slots.
const period = 24

// Persistence predicts each future slot as the observation 24 hours (one
// period) earlier. Slots with no history predict zero.
type Persistence struct{}

// Name implements Forecaster.
func (Persistence) Name() string { return "persistence" }

// Predict implements Forecaster.
func (p Persistence) Predict(actual solar.Provider, now, horizon int) []units.Power {
	return p.PredictInto(nil, actual, now, horizon)
}

// PredictInto implements IntoPredictor.
func (Persistence) PredictInto(dst []units.Power, actual solar.Provider, now, horizon int) []units.Power {
	out := fill(dst, horizon)
	for k := 0; k < horizon; k++ {
		s := now + k - period
		// Walk back whole periods until we reach observed history.
		for s >= now {
			s -= period
		}
		if s >= 0 {
			out[k] = actual.Power(s)
		}
	}
	return out
}

// maDays is MovingAverage's averaging window in periods.
const maDays = 3

// MovingAverage predicts each future slot as the mean of the observations
// at the same hour over the last maDays periods.
type MovingAverage struct{}

// Name implements Forecaster.
func (MovingAverage) Name() string { return fmt.Sprintf("ma%d", maDays) }

// Predict implements Forecaster.
func (m MovingAverage) Predict(actual solar.Provider, now, horizon int) []units.Power {
	return m.PredictInto(nil, actual, now, horizon)
}

// PredictInto implements IntoPredictor.
func (MovingAverage) PredictInto(dst []units.Power, actual solar.Provider, now, horizon int) []units.Power {
	out := fill(dst, horizon)
	for k := 0; k < horizon; k++ {
		var sum units.Power
		n := 0
		for d := 1; d <= maDays; d++ {
			s := now + k - d*period
			if s >= 0 && s < now {
				sum += actual.Power(s)
				n++
			}
		}
		if n > 0 {
			out[k] = units.Power(sum.Watts() / float64(n))
		}
	}
	return out
}

// EWMA predicts each hour-of-day with an exponentially weighted moving
// average over previous days, the estimator most production systems
// actually deploy for diurnal signals.
type EWMA struct{}

// ewmaAlpha is EWMA's weight of the most recent day.
const ewmaAlpha = 0.5

// Name implements Forecaster.
func (EWMA) Name() string { return fmt.Sprintf("ewma%.2f", ewmaAlpha) }

// Predict implements Forecaster.
func (e EWMA) Predict(actual solar.Provider, now, horizon int) []units.Power {
	return e.PredictInto(nil, actual, now, horizon)
}

// PredictInto implements IntoPredictor.
func (EWMA) PredictInto(dst []units.Power, actual solar.Provider, now, horizon int) []units.Power {
	out := fill(dst, horizon)
	for k := 0; k < horizon; k++ {
		// Fold history oldest-first so the newest day dominates.
		var est units.Power
		seen := false
		for s := (now + k) % period; s < now; s += period {
			if !seen {
				est = actual.Power(s)
				seen = true
			} else {
				est = units.Power((1-ewmaAlpha)*est.Watts() + ewmaAlpha*actual.Power(s).Watts())
			}
		}
		if seen {
			out[k] = est
		}
	}
	return out
}

// Errors summarizes forecast accuracy over a series.
type Errors struct {
	// MAE is the mean absolute error in watts.
	MAE float64
	// RMSE is the root-mean-square error in watts.
	RMSE float64
	// Bias is the mean signed error (predicted - actual) in watts.
	Bias float64
}

// Evaluate runs the forecaster in simulation over the whole series with
// 1-slot-ahead predictions and returns its error statistics. The first
// warmup slots are excluded so history-less startup does not dominate.
func Evaluate(f Forecaster, actual solar.Provider, warmup int) Errors {
	n := actual.Slots()
	var sumAbs, sumSq, sumSigned float64
	count := 0
	for s := warmup; s < n; s++ {
		pred := f.Predict(actual, s, 1)[0]
		err := (pred - actual.Power(s)).Watts()
		sumAbs += math.Abs(err)
		sumSq += err * err
		sumSigned += err
		count++
	}
	if count == 0 {
		return Errors{}
	}
	return Errors{
		MAE:  sumAbs / float64(count),
		RMSE: math.Sqrt(sumSq / float64(count)),
		Bias: sumSigned / float64(count),
	}
}

// ConfidenceScale maps a confidence level p in [0.5, 1] to the factor a
// point forecast is discounted by before a scheduler commits work against
// it: treating the forecaster's error as roughly symmetric around the
// point estimate, "supply exceeds q with probability p" tightens linearly
// from the median (p = 0.5, no discount) to half the point forecast at
// p = 1. Values outside [0.5, 1] clamp. Probabilistic admission policies
// (sched.Cucumber) use this to defer work only when the discounted
// forecast still fits it in green power.
func ConfidenceScale(p float64) float64 {
	if p < 0.5 {
		p = 0.5
	}
	if p > 1 {
		p = 1
	}
	return 1.5 - p
}
