package solar

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/units"
)

// Provider yields the renewable power available during each simulation slot.
// Implementations must be deterministic for a given construction so repeated
// experiment runs see identical supply.
type Provider interface {
	// Power returns the average power produced during slot i.
	Power(slot int) units.Power
	// Slots returns the number of slots the provider covers.
	Slots() int
}

// Series is an in-memory per-slot power trace implementing Provider.
type Series []units.Power

// Power returns the trace value at slot i, or 0 outside the trace.
func (s Series) Power(slot int) units.Power {
	if slot < 0 || slot >= len(s) {
		return 0
	}
	return s[slot]
}

// Slots returns the trace length.
func (s Series) Slots() int { return len(s) }

// TotalEnergy returns the energy in the trace, each sample holding for its
// one-hour slot.
func (s Series) TotalEnergy() units.Energy {
	var total units.Energy
	for _, p := range s {
		total += p.Over(1)
	}
	return total
}

// Peak returns the maximum power in the trace.
func (s Series) Peak() units.Power {
	var peak units.Power
	for _, p := range s {
		if p > peak {
			peak = p
		}
	}
	return peak
}

// Scale returns a copy of the series with every sample multiplied by f.
// Scaling a PV trace by f models changing the panel area by the same factor,
// which is how the panel-area sweep experiment is implemented efficiently.
func (s Series) Scale(f float64) Series {
	out := make(Series, len(s))
	for i, p := range s {
		out[i] = p.Scale(f)
	}
	return out
}

// FarmConfig describes a synthetic PV farm and the week it produces for.
type FarmConfig struct {
	// Panel is the installation; see DefaultPanel.
	Panel Panel
	// LatitudeDeg is the site latitude in degrees (Nantes is 47.2).
	LatitudeDeg float64
	// StartDayOfYear is the day of year of slot 0 (late June is ~173).
	StartDayOfYear int
	// Profile selects the stochastic weather regime.
	Profile Profile
	// Seed makes the weather process reproducible.
	Seed int64
	// Slots is the number of one-hour slots to generate.
	Slots int
}

// DefaultFarm returns the reference configuration used across the
// experiment suite: a Nantes-latitude site in late June, sunny profile,
// 1-hour slots for one week.
func DefaultFarm(areaM2 float64) FarmConfig {
	return FarmConfig{
		Panel:          DefaultPanel(areaM2),
		LatitudeDeg:    47.2,
		StartDayOfYear: 173,
		Profile:        ProfileSunny,
		Seed:           1,
		Slots:          168,
	}
}

// SlotTime returns the day of year and the local solar hour at slot's
// midpoint: the inputs of its clear-sky irradiance. Days past 365 wrap to
// the next year.
func (cfg FarmConfig) SlotTime(slot int) (day int, hourOfDay float64) {
	hourOfSim := float64(slot) + 0.5
	day = cfg.StartDayOfYear + int(hourOfSim)/24
	for day > 365 {
		day -= 365
	}
	hourOfDay = hourOfSim - 24*float64(int(hourOfSim)/24)
	return day, hourOfDay
}

// yearSlots is the number of one-hour slots in a 365-day year.
const yearSlots = 365 * 24

// clearSkyEntry remembers one clear-sky evaluation by its exact inputs.
type clearSkyEntry struct {
	set  bool
	day  int
	hour uint64 // math.Float64bits of the local solar hour
	irr  float64
}

// Generate produces the per-slot power trace for the farm. Each slot's
// irradiance is evaluated at the slot midpoint, attenuated by one weather
// step, and converted by the panel model.
//
// A year has yearSlots slots, and a slot one year later usually has the
// same (day, hour) inputs. Horizons longer than a year therefore remember
// each clear-sky value at its slot's index modulo that period, and a later
// slot reuses it only when its day and the bits of its hour equal the
// remembered ones. The value is a pure function of those
// inputs, so the trace is bit-identical to evaluating every slot.
func Generate(cfg FarmConfig) (Series, error) {
	if err := cfg.Panel.Validate(); err != nil {
		return nil, err
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("solar: non-positive slot count %d", cfg.Slots)
	}
	weather, err := NewWeather(cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var year []clearSkyEntry
	if cfg.Slots > yearSlots {
		year = make([]clearSkyEntry, yearSlots)
	}
	out := make(Series, cfg.Slots)
	for i := range out {
		day, hourOfDay := cfg.SlotTime(i)
		var irr float64
		if year == nil {
			irr = ClearSkyIrradiance(cfg.LatitudeDeg, day, hourOfDay)
		} else {
			e := &year[i%len(year)]
			hour := math.Float64bits(hourOfDay)
			if !e.set || e.day != day || e.hour != hour {
				*e = clearSkyEntry{true, day, hour, ClearSkyIrradiance(cfg.LatitudeDeg, day, hourOfDay)}
			}
			irr = e.irr
		}
		att := weather.Step()
		out[i] = cfg.Panel.Output(irr * att)
	}
	return out, nil
}

// WriteCSV writes the series as `slot,watts` rows with a header.
func (s Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"slot", "watts"}); err != nil {
		return err
	}
	for i, p := range s {
		if err := cw.Write([]string{strconv.Itoa(i), strconv.FormatFloat(p.Watts(), 'f', 3, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
