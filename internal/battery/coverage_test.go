package battery

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestAccountSub(t *testing.T) {
	prev := Account{InOffered: 100, InAccepted: 80, EfficiencyLoss: 12,
		Rejected: 20, Out: 30, SelfDischargeLoss: 1}
	cur := Account{InOffered: 150, InAccepted: 110, EfficiencyLoss: 16.5,
		Rejected: 40, Out: 55, SelfDischargeLoss: 1.5}
	d := cur.Sub(prev)
	want := Account{InOffered: 50, InAccepted: 30, EfficiencyLoss: 4.5,
		Rejected: 20, Out: 25, SelfDischargeLoss: 0.5}
	if d != want {
		t.Fatalf("Sub = %+v, want %+v", d, want)
	}
	if z := cur.Sub(cur); z != (Account{}) {
		t.Fatalf("Sub with itself = %+v, want zero", z)
	}
}

func TestMustSpecPanicsOnUnknownChemistry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSpec must panic for an unknown chemistry")
		}
	}()
	MustSpec(Chemistry("unobtainium"))
}

func TestMustNewPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic for an invalid spec")
		}
	}()
	MustNew(Spec{}, 1000) // zero efficiency fails validation
}

func TestSpecCapacityAccessors(t *testing.T) {
	spec := MustSpec(LithiumIon)
	b := MustNew(spec, 5000)
	if b.Spec() != spec {
		t.Fatalf("Spec() = %+v, want %+v", b.Spec(), spec)
	}
	if b.Capacity() != 5000 {
		t.Fatalf("Capacity() = %v, want 5000", b.Capacity())
	}
}

func TestVolumeLiters(t *testing.T) {
	spec := MustSpec(LithiumIon)
	if v := spec.VolumeLiters(units.Energy(spec.WhPerLiter * 10)); math.Abs(v-10) > 1e-9 {
		t.Fatalf("VolumeLiters = %v, want 10", v)
	}
	var dimensionless Spec
	if v := dimensionless.VolumeLiters(1000); v != 0 {
		t.Fatalf("zero-density spec must report 0 volume, got %v", v)
	}
}

func TestDischargePanicsOnBadArgs(t *testing.T) {
	b := MustNew(MustSpec(LithiumIon), 1000)
	for name, call := range map[string]func(){
		"negative request": func() { b.Discharge(-1, 1) },
		"zero window":      func() { b.Discharge(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Discharge must panic on %s", name)
				}
			}()
			call()
		}()
	}
}

func TestTickSelfDischargePanicsOnBadWindow(t *testing.T) {
	b := MustNew(MustSpec(LithiumIon), 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("TickSelfDischarge must panic on zero window")
		}
	}()
	b.TickSelfDischarge(0)
}

func TestZeroCapacityChargeAcceptsNothing(t *testing.T) {
	b := MustNew(MustSpec(LithiumIon), 0)
	if got := b.Charge(100, 1); got != 0 {
		t.Fatalf("zero-capacity battery accepted %v", got)
	}
}

func TestInfiniteBatteryConservation(t *testing.T) {
	b := MustNew(MustSpec(LithiumIon), units.Energy(math.Inf(1)))
	if e := b.ConservationError(); e != 0 {
		t.Fatalf("idle infinite battery conservation error %v", e)
	}
	b.Charge(1000, 1)
	b.Discharge(100, 1)
	if e := b.ConservationError(); e > 1e-6 {
		t.Fatalf("infinite battery conservation error %v after flows", e)
	}
	b.TickSelfDischarge(1)
	if e := b.ConservationError(); e > 1e-6 {
		t.Fatalf("conservation error %v after self-discharge", e)
	}
}
