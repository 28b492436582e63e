package wind

import (
	"testing"
	"testing/quick"

	"repro/internal/solar"
	"repro/internal/units"
)

func TestPowerCurveShape(t *testing.T) {
	tb := DefaultTurbine()
	if tb.Output(0) != 0 || tb.Output(2.9) != 0 {
		t.Error("below cut-in should be zero")
	}
	if tb.Output(12) != tb.RatedPower || tb.Output(20) != tb.RatedPower {
		t.Error("at/above rated should be rated power")
	}
	if tb.Output(25) != 0 || tb.Output(30) != 0 {
		t.Error("at/above cut-out should be zero")
	}
	mid := tb.Output(7)
	if mid <= 0 || mid >= tb.RatedPower {
		t.Errorf("mid-curve output %v should be strictly between 0 and rated", mid)
	}
	// Monotone between cut-in and rated.
	prev := units.Power(0)
	for s := 3.0; s <= 12; s += 0.5 {
		p := tb.Output(s)
		if p < prev {
			t.Fatalf("power curve not monotone at %v m/s", s)
		}
		prev = p
	}
}

func TestPowerCurveProperty(t *testing.T) {
	tb := DefaultTurbine()
	f := func(raw uint16) bool {
		speed := float64(raw%4000) / 100 // 0..40 m/s
		p := tb.Output(speed)
		return p >= 0 && p <= tb.RatedPower
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTurbineValidate(t *testing.T) {
	if err := DefaultTurbine().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultTurbine()
	bad.RatedPower = 0
	if bad.Validate() == nil {
		t.Error("zero rated power should be invalid")
	}
	bad = DefaultTurbine()
	bad.CutInSpeed = 15 // above rated
	if bad.Validate() == nil {
		t.Error("cut-in above rated should be invalid")
	}
}

func TestGenerate(t *testing.T) {
	s, err := Generate(DefaultFarm())
	if err != nil {
		t.Fatal(err)
	}
	if s.Slots() != 168 {
		t.Fatalf("slots = %d", s.Slots())
	}
	for i, p := range s {
		if p < 0 || p > 10000 {
			t.Fatalf("slot %d power %v out of [0, rated]", i, p)
		}
	}
	if s.TotalEnergy() <= 0 {
		t.Fatal("windless week is statistically impossible with these parameters")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(DefaultFarm())
	b := mustGenerate(DefaultFarm())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("not deterministic at slot %d", i)
		}
	}
}

func TestGenerateNightProduction(t *testing.T) {
	// Wind, unlike solar, must produce at night in expectation: count
	// positive night slots over a long trace.
	cfg := DefaultFarm()
	cfg.Slots = 24 * 60
	s := mustGenerate(cfg)
	nightPositive := 0
	for d := 0; d < 60; d++ {
		if s.Power(d*24+2) > 0 { // 02:00 each day
			nightPositive++
		}
	}
	if nightPositive < 20 {
		t.Errorf("only %d/60 nights had wind production; profile looks diurnal", nightPositive)
	}
}

func TestGenerateErrors(t *testing.T) {
	mut := func(f func(*FarmConfig)) FarmConfig {
		c := DefaultFarm()
		f(&c)
		return c
	}
	cases := []FarmConfig{
		mut(func(c *FarmConfig) { c.Count = 0 }),
		mut(func(c *FarmConfig) { c.Slots = 0 }),
		mut(func(c *FarmConfig) { c.WeibullShape = 0 }),
		mut(func(c *FarmConfig) { c.WeibullScale = -1 }),
		mut(func(c *FarmConfig) { c.Correlation = 1 }),
		mut(func(c *FarmConfig) { c.Correlation = -0.1 }),
		mut(func(c *FarmConfig) { c.Turbine.RatedPower = 0 }),
	}
	for i, c := range cases {
		if _, err := Generate(c); err == nil {
			t.Errorf("case %d should have failed", i)
		}
	}
}

func TestCountScaling(t *testing.T) {
	one := DefaultFarm()
	three := DefaultFarm()
	three.Count = 3
	a := mustGenerate(one)
	b := mustGenerate(three)
	for i := range a {
		if b[i] != units.Power(3*float64(a[i])) {
			t.Fatalf("count scaling broken at slot %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHybrid(t *testing.T) {
	a := solar.Series{100, 200}
	b := solar.Series{10, 20, 30}
	h := Hybrid(a, b)
	if len(h) != 3 {
		t.Fatalf("hybrid length %d, want 3", len(h))
	}
	if h[0] != 110 || h[1] != 220 || h[2] != 30 {
		t.Fatalf("hybrid values wrong: %v", h)
	}
}

// mustGenerate is Generate that panics on error.
func mustGenerate(cfg FarmConfig) solar.Series {
	s, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func TestEqualEnergy(t *testing.T) {
	sol := make(solar.Series, 48)
	for i := 8; i < 16; i++ {
		sol[i] = units.Power(1000)
		sol[24+i] = units.Power(1000)
	}
	want := sol.TotalEnergy()
	for _, src := range []string{"solar", "wind", "hybrid"} {
		got, err := EqualEnergy(src, sol, 3)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got.Slots() != sol.Slots() {
			t.Errorf("%s: %d slots, want %d", src, got.Slots(), sol.Slots())
		}
		if e := got.TotalEnergy(); e < want*0.999 || e > want*1.001 {
			t.Errorf("%s: energy %v, want %v", src, e, want)
		}
	}
	if _, err := EqualEnergy("coal", sol, 3); err == nil {
		t.Error("unknown source should fail")
	}
}
