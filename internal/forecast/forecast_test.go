package forecast

import (
	"math"
	"testing"

	"repro/internal/solar"
	"repro/internal/units"
)

// genSupply generates the farm's trace, failing t on error.
func genSupply(t testing.TB, farm solar.FarmConfig) solar.Series {
	t.Helper()
	s, err := solar.Generate(farm)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// periodicSeries builds a perfectly periodic daily pattern for n days.
func periodicSeries(days int) solar.Series {
	day := []units.Power{0, 0, 0, 0, 0, 50, 200, 400, 600, 800, 900, 950, 1000, 950, 900, 800, 600, 400, 200, 50, 0, 0, 0, 0}
	out := make(solar.Series, 0, days*24)
	for d := 0; d < days; d++ {
		out = append(out, day...)
	}
	return out
}

func TestPerfect(t *testing.T) {
	s := genSupply(t, solar.DefaultFarm(100))
	f := Perfect{}
	pred := f.Predict(s, 50, 24)
	for k := 0; k < 24; k++ {
		if pred[k] != s.Power(50+k) {
			t.Fatalf("perfect forecast wrong at k=%d", k)
		}
	}
	e := Evaluate(f, s, 24)
	if e.MAE != 0 || e.RMSE != 0 || e.Bias != 0 {
		t.Fatalf("perfect forecast has errors: %+v", e)
	}
}

func TestPersistenceOnPeriodicSignal(t *testing.T) {
	s := periodicSeries(7)
	f := Persistence{}
	e := Evaluate(f, s, 24)
	if e.MAE != 0 {
		t.Fatalf("persistence on a perfectly periodic signal must be exact, MAE=%v", e.MAE)
	}
}

func TestPersistenceNoHistoryPredictsZero(t *testing.T) {
	s := periodicSeries(2)
	f := Persistence{}
	pred := f.Predict(s, 0, 24)
	for k, p := range pred {
		if p != 0 {
			t.Fatalf("slot %d predicted %v with no history", k, p)
		}
	}
}

func TestPersistenceCausality(t *testing.T) {
	// Predicting 30 slots ahead from now=24 must not read the future:
	// slots 24+k with k>=24 would naively look at 24+k-24 >= now.
	s := periodicSeries(7)
	f := Persistence{}
	pred := f.Predict(s, 24, 48)
	for k := 0; k < 48; k++ {
		// On a periodic signal all predictions still match.
		if pred[k] != s.Power(24+k) {
			t.Fatalf("persistence horizon prediction wrong at k=%d: %v vs %v", k, pred[k], s.Power(24+k))
		}
	}
}

func TestMovingAverageOnPeriodicSignal(t *testing.T) {
	s := periodicSeries(7)
	f := MovingAverage{}
	e := Evaluate(f, s, 72)
	if e.MAE != 0 {
		t.Fatalf("MA on periodic signal must be exact after warmup, MAE=%v", e.MAE)
	}
}

func TestMovingAverageSmoothsNoise(t *testing.T) {
	// Real (weather-noised) trace: MA over 3 days should beat persistence
	// on RMSE more often than not; at minimum it must be finite and sane.
	s := genSupply(t, func() solar.FarmConfig {
		c := solar.DefaultFarm(100)
		c.Profile = solar.ProfileMixed
		c.Slots = 24 * 21
		return c
	}())
	ma := Evaluate(MovingAverage{}, s, 96)
	pe := Evaluate(Persistence{}, s, 96)
	if ma.RMSE <= 0 || pe.RMSE <= 0 {
		t.Fatal("noisy trace should give nonzero errors")
	}
	if ma.RMSE > 2*pe.RMSE {
		t.Errorf("MA (%v) much worse than persistence (%v); smoothing broken", ma.RMSE, pe.RMSE)
	}
}

func TestEWMAOnPeriodicSignal(t *testing.T) {
	s := periodicSeries(7)
	f := EWMA{}
	e := Evaluate(f, s, 72)
	if e.MAE > 1e-9 {
		t.Fatalf("EWMA on periodic signal must converge, MAE=%v", e.MAE)
	}
}

func TestEWMADefaults(t *testing.T) {
	e := EWMA{}
	if e.Name() != "ewma0.50" {
		t.Errorf("default EWMA name %q", e.Name())
	}
	m := MovingAverage{}
	if m.Name() != "ma3" {
		t.Errorf("default MA name %q", m.Name())
	}
	if (Persistence{}).Name() != "persistence" || (Perfect{}).Name() != "perfect" {
		t.Error("names wrong")
	}
}

func TestForecastersNonNegative(t *testing.T) {
	s := genSupply(t, solar.DefaultFarm(120))
	for _, f := range []Forecaster{Perfect{}, Persistence{}, MovingAverage{}, EWMA{}} {
		for now := 0; now < s.Slots(); now += 13 {
			for _, p := range f.Predict(s, now, 24) {
				if p < 0 {
					t.Fatalf("%s predicted negative power", f.Name())
				}
			}
		}
	}
}

func TestEvaluateOrderingOnNoisyTrace(t *testing.T) {
	cfg := solar.DefaultFarm(100)
	cfg.Profile = solar.ProfileMixed
	cfg.Slots = 24 * 28
	s := genSupply(t, cfg)
	perfect := Evaluate(Perfect{}, s, 96)
	others := []Forecaster{Persistence{}, MovingAverage{}, EWMA{}}
	for _, f := range others {
		e := Evaluate(f, s, 96)
		if e.RMSE <= perfect.RMSE {
			t.Errorf("%s RMSE %v not worse than oracle %v", f.Name(), e.RMSE, perfect.RMSE)
		}
		if math.IsNaN(e.MAE) || math.IsNaN(e.RMSE) {
			t.Errorf("%s produced NaN errors", f.Name())
		}
	}
}

func TestEvaluateEmptyWindow(t *testing.T) {
	s := periodicSeries(1)
	e := Evaluate(Persistence{}, s, 1000) // warmup beyond trace
	if e.MAE != 0 || e.RMSE != 0 {
		t.Error("empty evaluation window should be zero errors")
	}
}

func TestClearSkyOnSunnyTrace(t *testing.T) {
	farm := solar.DefaultFarm(100)
	farm.Slots = 24 * 14
	trace := genSupply(t, farm)
	f := ClearSky{Farm: farm}
	e := Evaluate(f, trace, 48)
	// On a mostly-sunny trace the physics model with estimated attenuation
	// must clearly beat persistence.
	pe := Evaluate(Persistence{}, trace, 48)
	if e.RMSE >= pe.RMSE {
		t.Errorf("clearsky RMSE %v not below persistence %v on sunny trace", e.RMSE, pe.RMSE)
	}
	if e.MAE < 0 {
		t.Fatal("negative MAE")
	}
}

func TestClearSkyNonNegativeAndBounded(t *testing.T) {
	farm := solar.DefaultFarm(100)
	farm.Profile = solar.ProfileOvercast
	farm.Slots = 24 * 7
	trace := genSupply(t, farm)
	f := ClearSky{Farm: farm}
	for now := 0; now < trace.Slots(); now += 11 {
		for _, p := range f.Predict(trace, now, 24) {
			if p < 0 {
				t.Fatal("negative prediction")
			}
			if p > farm.Panel.PeakPower() {
				t.Fatalf("prediction %v above panel peak", p)
			}
		}
	}
}

func TestClearSkyNoHistoryIsClearSky(t *testing.T) {
	farm := solar.DefaultFarm(50)
	f := ClearSky{Farm: farm}
	trace := genSupply(t, farm)
	pred := f.Predict(trace, 0, 24)
	// With no daylight history the attenuation defaults to 1: predictions
	// at night are zero, midday strictly positive.
	if pred[2] != 0 {
		t.Errorf("night prediction %v", pred[2])
	}
	if pred[12] <= 0 {
		t.Errorf("noon prediction %v", pred[12])
	}
	if f.Name() != "clearsky" {
		t.Errorf("name %q", f.Name())
	}
}

// TestPredictIntoAllocFree pins the per-slot forecast path: every
// forecaster predicts into a warm buffer without allocating, and writes
// exactly what Predict returns.
func TestPredictIntoAllocFree(t *testing.T) {
	farm := solar.DefaultFarm(100)
	farm.Slots = 24 * 7
	// Boxed once, as the simulator holds it: converting the series to the
	// interface on every call would be the caller's allocation.
	var trace solar.Provider = genSupply(t, farm)
	for _, f := range []Forecaster{Perfect{}, Persistence{}, MovingAverage{}, EWMA{}, ClearSky{Farm: farm}} {
		ip, ok := f.(IntoPredictor)
		if !ok {
			t.Fatalf("%s does not implement IntoPredictor", f.Name())
		}
		const now, horizon = 80, 24
		buf := ip.PredictInto(nil, trace, now, horizon)
		want := f.Predict(trace, now, horizon)
		for k := range want {
			if buf[k] != want[k] {
				t.Fatalf("%s: PredictInto[%d] = %v, Predict = %v", f.Name(), k, buf[k], want[k])
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			buf = ip.PredictInto(buf, trace, now, horizon)
		}); allocs != 0 {
			t.Errorf("%s: PredictInto into a warm buffer allocates %.0f times", f.Name(), allocs)
		}
	}
}
