package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPowerOver(t *testing.T) {
	cases := []struct {
		p     Power
		hours float64
		want  Energy
	}{
		{0, 1, 0},
		{100, 1, 100},
		{100, 0.5, 50},
		{250, 4, 1000},
		{-50, 2, -100}, // net flows may be negative mid-computation
	}
	for _, c := range cases {
		if got := c.p.Over(c.hours); got != c.want {
			t.Errorf("Power(%v).Over(%v) = %v, want %v", c.p, c.hours, got, c.want)
		}
	}
}

func TestEnergyRate(t *testing.T) {
	if got := Energy(1000).Rate(2); got != 500 {
		t.Errorf("Energy(1000).Rate(2) = %v, want 500", got)
	}
	if got := Energy(0).Rate(1); got != 0 {
		t.Errorf("Energy(0).Rate(1) = %v, want 0", got)
	}
}

func TestEnergyRatePanicsOnZeroHours(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rate(0) did not panic")
		}
	}()
	_ = Energy(1).Rate(0)
}

func TestRoundTripPowerEnergy(t *testing.T) {
	f := func(pRaw int32, hRaw uint8) bool {
		p := float64(pRaw) / 7       // keep magnitudes physical (sub-GW)
		h := float64(hRaw%24) + 0.25 // strictly positive hours
		e := Power(p).Over(h)
		back := e.Rate(h)
		return math.Abs(float64(back)-p) < 1e-9*(1+math.Abs(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerString(t *testing.T) {
	cases := []struct {
		p    Power
		want string
	}{
		{12, "12.0 W"},
		{1500, "1.500 kW"},
		{2.5e6, "2.500 MW"},
		{-1500, "-1.500 kW"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("Power(%v).String() = %q, want %q", float64(c.p), got, c.want)
		}
	}
}

func TestEnergyString(t *testing.T) {
	cases := []struct {
		e    Energy
		want string
	}{
		{900, "900.0 Wh"},
		{90000, "90.000 kWh"},
		{1.2e6, "1.200 MWh"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("Energy(%v).String() = %q, want %q", float64(c.e), got, c.want)
		}
	}
}

func TestKWhAndKW(t *testing.T) {
	if got := Energy(90000).KWh(); got != 90 {
		t.Errorf("KWh = %v, want 90", got)
	}
	if got := Power(2300).KW(); got != 2.3 {
		t.Errorf("KW = %v, want 2.3", got)
	}
}

func TestMinMax(t *testing.T) {
	if MinPower(1, 2) != 1 || MinPower(2, 1) != 1 {
		t.Error("MinPower wrong")
	}
	if MaxPower(1, 2) != 2 || MaxPower(2, 1) != 2 {
		t.Error("MaxPower wrong")
	}
	if MinEnergy(5, 3) != 3 || MinEnergy(3, 5) != 3 {
		t.Error("MinEnergy wrong")
	}
}

func TestNonNeg(t *testing.T) {
	if NonNegE(-1e-12) != 0 {
		t.Error("NonNegE should floor tiny negatives")
	}
	if NonNegE(5) != 5 {
		t.Error("NonNegE should pass positives")
	}
	if NonNegP(-3) != 0 || NonNegP(3) != 3 {
		t.Error("NonNegP failed")
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(100, 100.0005, 1e-3) {
		t.Error("ApproxEqual should accept within tol")
	}
	if ApproxEqual(100, 101, 1e-3) {
		t.Error("ApproxEqual should reject outside tol")
	}
}
