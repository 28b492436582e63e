package battery

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func li() Spec { return MustSpec(LithiumIon) }
func la() Spec { return MustSpec(LeadAcid) }

// MustNew is New that panics on error.
func MustNew(spec Spec, capacity units.Energy) *Battery {
	b, err := New(spec, capacity)
	if err != nil {
		panic(err)
	}
	return b
}

func TestSpecPresets(t *testing.T) {
	l := la()
	if l.Efficiency != 0.75 || l.ChargeRatePerHour != 0.125 || l.DischargeChargeRatio != 10 {
		t.Errorf("lead-acid preset wrong: %+v", l)
	}
	i := li()
	if i.Efficiency != 0.85 || i.ChargeRatePerHour != 0.25 || i.DischargeChargeRatio != 5 {
		t.Errorf("lithium-ion preset wrong: %+v", i)
	}
	if _, err := SpecFor(Chemistry("unobtainium")); err == nil {
		t.Error("unknown chemistry should error")
	}
}

func TestSpecValidate(t *testing.T) {
	mut := func(f func(*Spec)) Spec {
		s := li()
		f(&s)
		return s
	}
	bad := []Spec{
		mut(func(s *Spec) { s.Efficiency = 0 }),
		mut(func(s *Spec) { s.Efficiency = 1.2 }),
		mut(func(s *Spec) { s.DoD = 0 }),
		mut(func(s *Spec) { s.ChargeRatePerHour = 0 }),
		mut(func(s *Spec) { s.DischargeChargeRatio = 0.5 }),
		mut(func(s *Spec) { s.SelfDischargePerDay = -0.1 }),
		mut(func(s *Spec) { s.SelfDischargePerDay = 1 }),
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d should be invalid: %+v", i, s)
		}
	}
	if li().Validate() != nil || la().Validate() != nil {
		t.Error("presets must validate")
	}
}

func TestVolumeAndPriceMatchLiteratureTable(t *testing.T) {
	// The literature's 90 kWh example: LI ~600 L and $47,250; LA ~1,150 L
	// and $18,000.
	cap90 := 90 * units.KilowattHour
	liVol := li().VolumeLiters(cap90)
	if liVol < 570 || liVol > 630 {
		t.Errorf("LI 90kWh volume %v L, want ~600", liVol)
	}
	laVol := la().VolumeLiters(cap90)
	if laVol < 1100 || laVol > 1200 {
		t.Errorf("LA 90kWh volume %v L, want ~1150", laVol)
	}
	if p := li().PriceDollars(cap90); p != 47250 {
		t.Errorf("LI 90kWh price $%v, want 47250", p)
	}
	if p := la().PriceDollars(cap90); p != 18000 {
		t.Errorf("LA 90kWh price $%v, want 18000", p)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(li(), -1); err == nil {
		t.Error("negative capacity should error")
	}
	bad := li()
	bad.DoD = 0
	if _, err := New(bad, 100); err == nil {
		t.Error("invalid spec should error")
	}
}

func TestZeroCapacityIsNoESD(t *testing.T) {
	b := MustNew(li(), 0)
	if got := b.Charge(1000, 1); got != 0 {
		t.Errorf("zero-cap battery accepted %v", got)
	}
	if got := b.Discharge(1000, 1); got != 0 {
		t.Errorf("zero-cap battery delivered %v", got)
	}
	if b.Account().Rejected != 1000 {
		t.Errorf("rejected = %v, want 1000", b.Account().Rejected)
	}
	if b.SoC() != 0 {
		t.Error("zero-cap SoC should be 0")
	}
}

func TestChargeRespectsRateLimit(t *testing.T) {
	// 100 kWh LI battery: charge rate 25%/h = 25 kWh per 1h window.
	b := MustNew(li(), 100*units.KilowattHour)
	accepted := b.Charge(60*units.KilowattHour, 1)
	if accepted != 25*units.KilowattHour {
		t.Errorf("accepted %v, want 25 kWh (rate limit)", accepted)
	}
	if got := b.Stored(); got != units.Energy(25000*0.85) {
		t.Errorf("stored %v, want 21.25 kWh after efficiency", got)
	}
	if b.Account().Rejected != 35*units.KilowattHour {
		t.Errorf("rejected %v, want 35 kWh", b.Account().Rejected)
	}
}

func TestChargeRespectsDoDCeiling(t *testing.T) {
	// Tiny battery so space, not rate, binds: 1 kWh, DoD 0.8 => 800 Wh max
	// stored; input needed = 800/0.85 ~= 941.2 Wh.
	b := MustNew(li(), 1*units.KilowattHour)
	total := units.Energy(0)
	for i := 0; i < 100; i++ {
		total += b.Charge(10*units.KilowattHour, 10) // huge window so rate never binds
	}
	if b.Stored() > b.UsableCapacity()+1e-9 {
		t.Fatalf("stored %v exceeds usable %v", b.Stored(), b.UsableCapacity())
	}
	wantInput := 800.0 / 0.85
	if math.Abs(float64(total)-wantInput) > 1e-6 {
		t.Errorf("total accepted %v, want %v", total, wantInput)
	}
	if b.SoC() < 0.999 {
		t.Errorf("SoC %v, want ~1", b.SoC())
	}
}

func TestDischargeRespectsRateAndStore(t *testing.T) {
	b := MustNew(li(), 100*units.KilowattHour)
	// Fill substantially: 4 windows of 25 kWh input.
	for i := 0; i < 4; i++ {
		b.Charge(25*units.KilowattHour, 1)
	}
	stored := b.Stored()
	// LI discharge rate = 25%*5 = 125%/h => 125 kWh/h, not binding here;
	// store binds.
	got := b.Discharge(200*units.KilowattHour, 1)
	if math.Abs(float64(got-stored)) > 1e-9 {
		t.Errorf("delivered %v, want full store %v", got, stored)
	}
	if b.Stored() != 0 {
		t.Errorf("store should be empty, got %v", b.Stored())
	}
}

func TestDischargeRateBindsOnShortWindow(t *testing.T) {
	la := MustNew(la(), 100*units.KilowattHour)
	// Fill over many hours.
	for i := 0; i < 20; i++ {
		la.Charge(12.5*units.KilowattHour, 1)
	}
	// LA discharge rate = 12.5%*10 = 125 kWh/h; in 0.1h window max 12.5 kWh.
	got := la.Discharge(50*units.KilowattHour, 0.1)
	if math.Abs(float64(got)-12500) > 1e-6 {
		t.Errorf("delivered %v, want 12.5 kWh (rate limited)", got)
	}
}

func TestSelfDischarge(t *testing.T) {
	b := MustNew(li(), 100*units.KilowattHour)
	b.Charge(25*units.KilowattHour, 1)
	before := b.Stored()
	loss := b.TickSelfDischarge(24)
	want := float64(before) * 0.001
	if math.Abs(float64(loss)-want) > 1e-6 {
		t.Errorf("24h self-discharge %v, want %v", loss, want)
	}
	if b.Stored() != before-loss {
		t.Error("store not reduced by loss")
	}
	if b.Account().SelfDischargeLoss != loss {
		t.Error("account not updated")
	}
}

func TestSelfDischargeEmptyBattery(t *testing.T) {
	b := MustNew(li(), 100*units.KilowattHour)
	if b.TickSelfDischarge(24) != 0 {
		t.Error("empty battery should not self-discharge")
	}
}

func TestPanics(t *testing.T) {
	b := MustNew(li(), 1000)
	for _, f := range []func(){
		func() { b.Charge(-1, 1) },
		func() { b.Charge(1, 0) },
		func() { b.Discharge(-1, 1) },
		func() { b.Discharge(1, -1) },
		func() { b.TickSelfDischarge(0) },
	} {
		assertPanic(t, f)
	}
}

func assertPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestInfiniteBattery(t *testing.T) {
	b := Infinite(li())
	acc := b.Charge(1e9, 1)
	if acc != 1e9 {
		t.Errorf("infinite battery accepted %v, want all", acc)
	}
	if b.Account().Rejected != 0 {
		t.Error("infinite battery rejected energy")
	}
	got := b.Discharge(1e8, 1)
	if got != 1e8 {
		t.Errorf("infinite battery delivered %v", got)
	}
	// Can't deliver more than stored even when infinite.
	rest := b.Discharge(1e10, 1)
	wantRest := units.Energy(1e9*0.85 - 1e8)
	if math.Abs(float64(rest-wantRest)) > 1 {
		t.Errorf("rest delivered %v, want %v", rest, wantRest)
	}
	if b.ConservationError() > 1e-3 {
		t.Errorf("conservation error %v", b.ConservationError())
	}
}

func TestConservationProperty(t *testing.T) {
	// Arbitrary interleavings of charge/discharge/self-discharge preserve
	// the energy balance and the SoC bounds.
	type op struct {
		Kind   uint8
		Amount uint16
		Win    uint8
	}
	f := func(ops []op, liChem bool) bool {
		spec := la()
		if liChem {
			spec = li()
		}
		b := MustNew(spec, 50*units.KilowattHour)
		for _, o := range ops {
			amt := units.Energy(o.Amount) * 10
			win := float64(o.Win%8)/2 + 0.5
			switch o.Kind % 3 {
			case 0:
				b.Charge(amt, win)
			case 1:
				b.Discharge(amt, win)
			case 2:
				b.TickSelfDischarge(win)
			}
			if b.Stored() < 0 || b.Stored() > b.UsableCapacity()+1e-6 {
				return false
			}
		}
		a := b.Account()
		if a.InAccepted > a.InOffered || a.Rejected < 0 {
			return false
		}
		return b.ConservationError() < 1e-6*(1+float64(a.InAccepted))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAccountTotals(t *testing.T) {
	b := MustNew(li(), 100*units.KilowattHour)
	b.Charge(10*units.KilowattHour, 1)
	b.TickSelfDischarge(24)
	b.Discharge(5*units.KilowattHour, 1)
	a := b.Account()
	if a.InOffered != 10*units.KilowattHour {
		t.Errorf("InOffered %v", a.InOffered)
	}
	if a.InAccepted != 10*units.KilowattHour {
		t.Errorf("InAccepted %v", a.InAccepted)
	}
	wantEffLoss := units.Energy(10000 * 0.15)
	if math.Abs(float64(a.EfficiencyLoss-wantEffLoss)) > 1e-9 {
		t.Errorf("EfficiencyLoss %v, want %v", a.EfficiencyLoss, wantEffLoss)
	}
	if a.Out != 5*units.KilowattHour {
		t.Errorf("Out %v", a.Out)
	}
	if a.TotalLoss() != a.EfficiencyLoss+a.SelfDischargeLoss {
		t.Error("TotalLoss mismatch")
	}
}

func TestLAvsLIEfficiencyOrdering(t *testing.T) {
	// For the same flows, LA must lose more to efficiency than LI.
	run := func(spec Spec) units.Energy {
		b := MustNew(spec, 100*units.KilowattHour)
		for i := 0; i < 10; i++ {
			b.Charge(10*units.KilowattHour, 1)
			b.Discharge(5*units.KilowattHour, 1)
		}
		return b.Account().TotalLoss()
	}
	if run(la()) <= run(li()) {
		t.Error("lead-acid should lose more energy than lithium-ion on identical flows")
	}
}

func TestEquivalentFullCycles(t *testing.T) {
	b := MustNew(li(), 100*units.KilowattHour) // usable 80 kWh
	// Fill then drain one full usable capacity.
	for i := 0; i < 8; i++ {
		b.Charge(25*units.KilowattHour, 1)
	}
	drained := units.Energy(0)
	for i := 0; i < 10 && drained < 80*units.KilowattHour; i++ {
		drained += b.Discharge(80*units.KilowattHour-drained, 1)
	}
	cycles := b.EquivalentFullCycles()
	if math.Abs(cycles-float64(drained)/80000) > 1e-9 {
		t.Errorf("cycles %v inconsistent with throughput %v", cycles, drained)
	}
	if cycles <= 0.5 {
		t.Errorf("expected most of one cycle, got %v", cycles)
	}
	wear := b.WearFraction()
	if math.Abs(wear-cycles/3000) > 1e-12 {
		t.Errorf("wear %v, want cycles/3000", wear)
	}
}

func TestWearZeroCases(t *testing.T) {
	if Infinite(li()).EquivalentFullCycles() != 0 {
		t.Error("infinite battery should report zero cycles")
	}
	zero := MustNew(li(), 0)
	if zero.EquivalentFullCycles() != 0 || zero.WearFraction() != 0 {
		t.Error("zero-capacity battery should report zero wear")
	}
	noRating := li()
	noRating.RatedCycles = 0
	b := MustNew(noRating, 1000)
	if b.WearFraction() != 0 {
		t.Error("unrated chemistry should report zero wear fraction")
	}
}

func TestRatedCyclesPresets(t *testing.T) {
	if la().RatedCycles != 1200 || li().RatedCycles != 3000 {
		t.Errorf("cycle ratings wrong: la=%v li=%v", la().RatedCycles, li().RatedCycles)
	}
}

func TestFastCyclingPresets(t *testing.T) {
	for _, chem := range []Chemistry{Flywheel, UltraCapacitor} {
		s := MustSpec(chem)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", chem, err)
		}
		// Fast-cycling technologies: higher efficiency and C-rates than
		// batteries, but brutal self-discharge and cost per kWh.
		if s.Efficiency <= li().Efficiency {
			t.Errorf("%s efficiency %v should exceed LI", chem, s.Efficiency)
		}
		if s.ChargeRatePerHour <= li().ChargeRatePerHour {
			t.Errorf("%s charge rate should exceed LI", chem)
		}
		if s.SelfDischargePerDay <= li().SelfDischargePerDay {
			t.Errorf("%s self-discharge should exceed LI", chem)
		}
		if s.PricePerKWh <= li().PricePerKWh {
			t.Errorf("%s price should exceed LI", chem)
		}
	}
}

func TestFlywheelLosesStoreOvernight(t *testing.T) {
	// The reason flywheels cannot do day->night shifting: half the store
	// evaporates per day.
	b := MustNew(MustSpec(Flywheel), 10*units.KilowattHour)
	b.Charge(10*units.KilowattHour, 1)
	before := b.Stored()
	b.TickSelfDischarge(12) // overnight
	if b.Stored() > before*0.8 {
		t.Errorf("flywheel kept %v of %v over 12h; self-discharge too weak", b.Stored(), before)
	}
}
