package battery

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestDerateHealthyDefaults(t *testing.T) {
	b := MustNew(MustSpec(LithiumIon), 1000)
	if got := b.FadeFactor(); got != 1 {
		t.Fatalf("fresh battery fade factor = %v, want 1", got)
	}
	if got := b.EffectiveCapacity(); got != 1000 {
		t.Fatalf("fresh effective capacity = %v, want 1000", got)
	}
	if got := b.UsableCapacity(); got != 800 {
		t.Fatalf("fresh usable capacity = %v, want 800 (DoD 0.8)", got)
	}
}

func TestDerateScalesCapacityAndRates(t *testing.T) {
	b := MustNew(MustSpec(LithiumIon), 1000)
	if clamped := b.Derate(0.5); clamped != 0 {
		t.Fatalf("derating an empty battery clamped %v, want 0", clamped)
	}
	if got := b.FadeFactor(); got != 0.5 {
		t.Fatalf("fade factor = %v, want 0.5", got)
	}
	if got := b.EffectiveCapacity(); got != 500 {
		t.Fatalf("effective capacity = %v, want 500", got)
	}
	if got := b.UsableCapacity(); got != 400 {
		t.Fatalf("usable capacity = %v, want 400", got)
	}
	// C-rate limits derive from the faded capacity: 25%/h of 500 Wh.
	accepted := b.Charge(10000, 1)
	if got, want := float64(accepted), 500*0.25; math.Abs(got-want) > 1e-9 {
		t.Fatalf("charge accepted %v, want rate cap %v", got, want)
	}
}

func TestDerateClampsStoreAndBooksLoss(t *testing.T) {
	b := MustNew(MustSpec(LithiumIon), 1000)
	// Fill to the usable ceiling (800 Wh) over several slots.
	for i := 0; i < 10; i++ {
		b.Charge(1000, 1)
	}
	if got := b.Stored(); got != 800 {
		t.Fatalf("stored after fill = %v, want 800", got)
	}
	clamped := b.Derate(0.25) // usable ceiling drops to 200
	if want := units.Energy(600); clamped != want {
		t.Fatalf("clamped %v, want %v", clamped, want)
	}
	if got := b.Stored(); got != 200 {
		t.Fatalf("stored after derate = %v, want 200", got)
	}
	if got := b.Account().SelfDischargeLoss; got != 600 {
		t.Fatalf("clamp booked %v to self-discharge loss, want 600", got)
	}
	if err := b.ConservationError(); err > 1e-9 {
		t.Fatalf("conservation error %v after fade clamp", err)
	}
}

func TestDerateFactorClamped(t *testing.T) {
	b := MustNew(MustSpec(LithiumIon), 1000)
	b.Derate(-0.5)
	if got := b.FadeFactor(); got != 0 {
		t.Fatalf("fade factor after Derate(-0.5) = %v, want 0", got)
	}
	if got := b.EffectiveCapacity(); got != 0 {
		t.Fatalf("effective capacity at full fade = %v, want 0", got)
	}
	b.Derate(2)
	if got := b.FadeFactor(); got != 1 {
		t.Fatalf("fade factor after Derate(2) = %v, want 1", got)
	}
}

func TestDerateRecovery(t *testing.T) {
	b := MustNew(MustSpec(LithiumIon), 1000)
	b.Derate(0.5)
	b.Derate(1) // fade is absolute: restoring factor 1 heals capacity
	if got := b.EffectiveCapacity(); got != 1000 {
		t.Fatalf("effective capacity after recovery = %v, want 1000", got)
	}
	if got := b.UsableCapacity(); got != 800 {
		t.Fatalf("usable capacity after recovery = %v, want 800", got)
	}
}

func TestDerateInfiniteNoOp(t *testing.T) {
	b := MustNew(MustSpec(LithiumIon), units.Energy(math.Inf(1)))
	if clamped := b.Derate(0.1); clamped != 0 {
		t.Fatalf("infinite battery Derate clamped %v, want 0", clamped)
	}
	if !math.IsInf(float64(b.EffectiveCapacity()), 1) {
		t.Fatalf("infinite battery effective capacity = %v, want +Inf", b.EffectiveCapacity())
	}
	if got := b.FadeFactor(); got != 1 {
		t.Fatalf("infinite battery fade factor = %v, want 1", got)
	}
}
