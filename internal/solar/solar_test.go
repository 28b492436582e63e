package solar

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// mustGenerate generates the farm's trace, failing t on error.
func mustGenerate(t testing.TB, cfg FarmConfig) Series {
	t.Helper()
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDeclinationBounds(t *testing.T) {
	maxDecl := 23.45 * math.Pi / 180
	for day := 1; day <= 365; day++ {
		d := Declination(day)
		if math.Abs(d) > maxDecl+1e-9 {
			t.Fatalf("day %d declination %v exceeds +-23.45deg", day, d)
		}
	}
	// Summer solstice (~day 172) should be near +23.45deg, winter (~day 355) near -23.45deg.
	if Declination(172) < maxDecl*0.99 {
		t.Errorf("solstice declination too low: %v", Declination(172))
	}
	if Declination(355) > -maxDecl*0.99 {
		t.Errorf("winter declination too high: %v", Declination(355))
	}
}

func TestHourAngle(t *testing.T) {
	if HourAngle(12) != 0 {
		t.Error("hour angle at noon should be 0")
	}
	if math.Abs(HourAngle(18)-math.Pi/2) > 1e-9 {
		t.Errorf("hour angle at 18:00 = %v, want pi/2", HourAngle(18))
	}
}

func TestAirMass(t *testing.T) {
	if am := AirMass(1); math.Abs(am-1) > 0.01 {
		t.Errorf("air mass at zenith = %v, want ~1", am)
	}
	if !math.IsInf(AirMass(0), 1) || !math.IsInf(AirMass(-0.5), 1) {
		t.Error("air mass below horizon should be +Inf")
	}
	// Air mass grows as the sun drops.
	if AirMass(0.5) <= AirMass(0.9) {
		t.Error("air mass should increase as elevation decreases")
	}
}

func TestClearSkyZeroAtNight(t *testing.T) {
	// Midsummer day length at 47.2N is ~16 h, so the sun is below the
	// horizon until ~04:00 solar time.
	for hour := 0.0; hour < 4; hour += 0.5 {
		if irr := ClearSkyIrradiance(47.2, 173, hour); irr != 0 {
			t.Fatalf("irradiance at %vh = %v, want 0 (night)", hour, irr)
		}
	}
}

func TestClearSkyPeaksAtNoon(t *testing.T) {
	noon := ClearSkyIrradiance(47.2, 173, 12)
	if noon < 700 || noon > 1100 {
		t.Errorf("midsummer noon irradiance %v W/m2, want 700..1100", noon)
	}
	for _, h := range []float64{8, 10, 14, 16} {
		if ClearSkyIrradiance(47.2, 173, h) >= noon {
			t.Errorf("irradiance at %vh not below noon", h)
		}
	}
}

func TestClearSkySeasons(t *testing.T) {
	summer := ClearSkyIrradiance(47.2, 173, 12)
	winter := ClearSkyIrradiance(47.2, 355, 12)
	if winter >= summer {
		t.Errorf("winter noon %v should be below summer noon %v", winter, summer)
	}
	if winter <= 0 {
		t.Errorf("winter noon should still be positive at 47.2N, got %v", winter)
	}
}

func TestClearSkyNonNegativeProperty(t *testing.T) {
	f := func(latRaw int16, day uint16, hourRaw uint16) bool {
		lat := float64(latRaw % 90) // -89..89
		d := int(day%365) + 1
		hour := float64(hourRaw%2400) / 100
		irr := ClearSkyIrradiance(lat, d, hour)
		return irr >= 0 && irr < 1353
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDayLength checks the daylight window of the clear-sky model: the
// hours of positive irradiance, sampled every six minutes.
func TestDayLength(t *testing.T) {
	dayLength := func(latitudeDeg float64, dayOfYear int) float64 {
		lit := 0
		for m := 0; m < 240; m++ {
			if ClearSkyIrradiance(latitudeDeg, dayOfYear, (float64(m)+0.5)/10) > 0 {
				lit++
			}
		}
		return float64(lit) / 10
	}
	summer := dayLength(47.2, 173)
	winter := dayLength(47.2, 355)
	if summer < 15 || summer > 17 {
		t.Errorf("midsummer day length at 47.2N = %v, want ~16h", summer)
	}
	if winter < 7 || winter > 9 {
		t.Errorf("midwinter day length at 47.2N = %v, want ~8h", winter)
	}
	if dayLength(80, 173) != 24 {
		t.Error("polar summer should be 24h")
	}
	if dayLength(80, 355) != 0 {
		t.Error("polar winter should be 0h")
	}
}

func TestPanelOutput(t *testing.T) {
	p := DefaultPanel(1.38) // one standard module
	peak := p.PeakPower()
	if peak < 200 || peak > 260 {
		t.Errorf("one-module peak %v, want ~240 W class", peak)
	}
	if p.Output(-5) != 0 {
		t.Error("negative irradiance should give zero output")
	}
	if p.Output(0) != 0 {
		t.Error("zero irradiance should give zero output")
	}
}

func TestPanelValidate(t *testing.T) {
	if err := DefaultPanel(10).Validate(); err != nil {
		t.Fatalf("default panel invalid: %v", err)
	}
	bad := DefaultPanel(10)
	bad.Efficiency = 0
	if bad.Validate() == nil {
		t.Error("zero efficiency should be invalid")
	}
	bad = DefaultPanel(10)
	bad.AreaM2 = -1
	if bad.Validate() == nil {
		t.Error("negative area should be invalid")
	}
	bad = DefaultPanel(10)
	bad.InverterEfficiency = 1.5
	if bad.Validate() == nil {
		t.Error("inverter efficiency >1 should be invalid")
	}
}

func TestWeatherUnknownProfile(t *testing.T) {
	if _, err := NewWeather(Profile("storm"), 1); err == nil {
		t.Error("unknown profile should error")
	}
}

func TestWeatherFactorsInRange(t *testing.T) {
	for _, p := range []Profile{ProfileSunny, ProfileMixed, ProfileOvercast, ProfileWinter} {
		w, err := NewWeather(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			f := w.Step()
			if f < 0 || f > 1 {
				t.Fatalf("profile %s factor out of range: %v", p, f)
			}
		}
	}
}

func TestWeatherProfilesOrdered(t *testing.T) {
	mean := func(p Profile) float64 {
		w, _ := NewWeather(p, 5)
		sum := 0.0
		n := 20000
		for i := 0; i < n; i++ {
			sum += w.Step()
		}
		return sum / float64(n)
	}
	sunny, mixed, overcast := mean(ProfileSunny), mean(ProfileMixed), mean(ProfileOvercast)
	if !(sunny > mixed && mixed > overcast) {
		t.Errorf("attenuation means not ordered: sunny=%v mixed=%v overcast=%v", sunny, mixed, overcast)
	}
	if sunny < 0.9 {
		t.Errorf("sunny profile mean attenuation %v, want >0.9", sunny)
	}
}

func TestGenerateWeek(t *testing.T) {
	cfg := DefaultFarm(165.6) // 120 modules
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Slots() != 168 {
		t.Fatalf("slots = %d, want 168", s.Slots())
	}
	// Night slots (0..4 each day local solar time) must be zero.
	for d := 0; d < 7; d++ {
		for h := 0; h < 4; h++ {
			if p := s.Power(d*24 + h); p != 0 {
				t.Fatalf("night slot day %d hour %d has power %v", d, h, p)
			}
		}
	}
	if s.Peak() <= 0 {
		t.Fatal("no production at all")
	}
	// Peak bounded by panel peak (irradiance < 1000 W/m2 effectively).
	if s.Peak() > cfg.Panel.PeakPower() {
		t.Fatalf("peak %v exceeds panel peak %v", s.Peak(), cfg.Panel.PeakPower())
	}
	if s.TotalEnergy(1) <= 0 {
		t.Fatal("zero weekly energy")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, DefaultFarm(100))
	b := mustGenerate(t, DefaultFarm(100))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace not deterministic at slot %d", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	cfg := DefaultFarm(10)
	cfg.Slots = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero slots should error")
	}
	// A NaN or infinite slot length would give an all-NaN trace.
	for _, h := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg = DefaultFarm(10)
		cfg.SlotHours = h
		if _, err := Generate(cfg); err == nil {
			t.Errorf("slot hours %v should error", h)
		}
	}
	cfg = DefaultFarm(-1)
	if _, err := Generate(cfg); err == nil {
		t.Error("negative area should error")
	}
	cfg = DefaultFarm(10)
	cfg.Profile = "nope"
	if _, err := Generate(cfg); err == nil {
		t.Error("bad profile should error")
	}
}

func TestSeriesScale(t *testing.T) {
	s := Series{100, 200, 0}
	d := s.Scale(2.5)
	want := Series{250, 500, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("scale: got %v want %v", d, want)
		}
	}
	if s[0] != 100 {
		t.Error("Scale must not mutate the receiver")
	}
}

func TestSeriesPowerOutOfRange(t *testing.T) {
	s := Series{10}
	if s.Power(-1) != 0 || s.Power(5) != 0 {
		t.Error("out-of-range slots should read as zero power")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := mustGenerate(t, DefaultFarm(50))
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(orig)+1 || strings.Join(rows[0], ",") != "slot,watts" {
		t.Fatalf("got %d rows, want a slot,watts header and %d slots", len(rows), len(orig))
	}
	for i, row := range rows[1:] {
		w, err := strconv.ParseFloat(row[1], 64)
		if err != nil || row[0] != strconv.Itoa(i) || math.Abs(w-orig[i].Watts()) > 0.01 {
			t.Fatalf("row %d = %v, want slot %d at %v W", i+1, row, i, orig[i].Watts())
		}
	}
}

func TestSeriesImplementsProvider(t *testing.T) {
	var _ Provider = Series{}
	var _ Provider = mustGenerate(t, DefaultFarm(10))
	_ = units.Power(0)
}

// generateReference is Generate without the clear-sky table: every slot
// evaluates its irradiance afresh. It is the reference the table must
// reproduce bit for bit.
func generateReference(cfg FarmConfig) Series {
	weather, err := NewWeather(cfg.Profile, cfg.Seed)
	if err != nil {
		panic(err)
	}
	out := make(Series, cfg.Slots)
	for i := 0; i < cfg.Slots; i++ {
		hourOfSim := (float64(i) + 0.5) * cfg.SlotHours
		day := cfg.StartDayOfYear + int(hourOfSim)/24
		for day > 365 {
			day -= 365
		}
		hourOfDay := hourOfSim - 24*float64(int(hourOfSim)/24)
		irr := ClearSkyIrradiance(cfg.LatitudeDeg, day, hourOfDay)
		att := weather.Step()
		out[i] = cfg.Panel.Output(irr * att)
	}
	return out
}

// TestGenerateMatchesReference requires the clear-sky table to leave every
// trace bit-identical: slot lengths that divide an hour, that do not (0.3)
// and that exceed one (7); horizons just under a week, exactly one year of
// hourly slots, one slot past it and the batch-sparse horizon; and start
// days at the year's start, midsummer and its last day, where the wrap
// falls early.
func TestGenerateMatchesReference(t *testing.T) {
	profiles := []Profile{ProfileSunny, ProfileMixed, ProfileOvercast, ProfileWinter}
	for _, slotHours := range []float64{1, 0.5, 0.25, 0.3, 7} {
		for _, slots := range []int{167, 8760, 8761, 40000} {
			for _, start := range []int{1, 173, 365} {
				for _, p := range profiles {
					cfg := DefaultFarm(165.6)
					cfg.SlotHours, cfg.Slots, cfg.StartDayOfYear, cfg.Profile = slotHours, slots, start, p
					got := mustGenerate(t, cfg)
					want := generateReference(cfg)
					for i := range want {
						if math.Float64bits(got[i].Watts()) != math.Float64bits(want[i].Watts()) {
							t.Fatalf("slotHours=%v slots=%d start=%d %s: slot %d = %v, reference %v",
								slotHours, slots, start, p, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestSlotTime pins the slot clock Generate and the clear-sky forecaster
// share: slot midpoints, the day boundary and the year wrap.
func TestSlotTime(t *testing.T) {
	cfg := DefaultFarm(10)
	cfg.StartDayOfYear = 365
	for _, c := range []struct {
		slot int
		day  int
		hour float64
	}{
		{0, 365, 0.5},
		{23, 365, 23.5},
		{24, 1, 0.5},
		{24 * 366, 1, 0.5},
	} {
		day, hour := cfg.SlotTime(c.slot)
		if day != c.day || hour != c.hour {
			t.Errorf("SlotTime(%d) = (%d, %v), want (%d, %v)", c.slot, day, hour, c.day, c.hour)
		}
	}
}
