// Package battery implements the Energy Storage Device (ESD) model used by
// GreenMatch: a rechargeable battery with charging efficiency, C-rate limits
// on charge and discharge, a depth-of-discharge (DoD) ceiling on usable
// capacity, and time-proportional self-discharge.
//
// The model follows the standard characteristics table used across the
// green-data-center literature (Chen et al. 2009, Divya & Østergaard 2009,
// Wang et al. SIGMETRICS 2012):
//
//	                         Lead-Acid   Lithium-Ion
//	DoD                        0.8          0.8
//	Charge rate / size         12.5 %/h     25 %/h
//	Efficiency                 0.75         0.85
//	Self-discharge per day     0.3 %        0.1 %
//	Discharge/charge ratio     10           5
//	Price ($/kWh)              200          525
//	Energy density (Wh/L)      ~78          ~150
//
// Charging and discharging are mutually exclusive within a slot (the device
// is never in both states simultaneously); the simulator enforces this by
// settling surplus (charge) and deficit (discharge) as alternatives.
package battery

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Chemistry identifies a battery technology preset.
type Chemistry string

// Supported ESD technologies. LeadAcid and LithiumIon are the battery
// chemistries the evaluation focuses on; Flywheel and UltraCapacitor are
// the fast-cycling technologies the ESD literature (Wang et al.,
// SIGMETRICS 2012) positions for power smoothing rather than energy
// shifting — included so sizing studies can show *why* batteries win the
// day/night use case.
const (
	LeadAcid       Chemistry = "lead-acid"
	LithiumIon     Chemistry = "lithium-ion"
	Flywheel       Chemistry = "flywheel"
	UltraCapacitor Chemistry = "ultracapacitor"
)

// Spec holds the technology parameters of an ESD, independent of its size.
type Spec struct {
	// Name identifies the chemistry in reports.
	Name Chemistry
	// Efficiency is the charging efficiency sigma in (0,1]: of every Wh
	// drawn from the source, sigma Wh lands in the store.
	Efficiency float64
	// DoD is the usable fraction eta of nominal capacity in (0,1]. Stored
	// energy never exceeds DoD*C, protecting battery lifetime.
	DoD float64
	// ChargeRatePerHour is lambda: the maximum charge power as a fraction
	// of nominal capacity per hour (a C-rate; 0.125 means C/8).
	ChargeRatePerHour float64
	// DischargeChargeRatio is mu/lambda: discharging may be this many times
	// faster than charging.
	DischargeChargeRatio float64
	// SelfDischargePerDay is the fraction of stored energy lost per day.
	SelfDischargePerDay float64
	// PricePerKWh is the capital cost in dollars per kWh of nominal size.
	PricePerKWh float64
	// WhPerLiter is the volumetric energy density of nominal capacity.
	WhPerLiter float64
	// RatedCycles is the number of full charge/discharge cycles the
	// chemistry sustains at its rated DoD before end of life (Chen et al.
	// 2009 ranges: lead-acid ~1200, lithium-ion ~3000).
	RatedCycles float64
}

// SpecFor returns the preset for a chemistry.
func SpecFor(c Chemistry) (Spec, error) {
	switch c {
	case LeadAcid:
		return Spec{
			Name:                 LeadAcid,
			Efficiency:           0.75,
			DoD:                  0.8,
			ChargeRatePerHour:    0.125,
			DischargeChargeRatio: 10,
			SelfDischargePerDay:  0.003,
			PricePerKWh:          200,
			WhPerLiter:           78,
			RatedCycles:          1200,
		}, nil
	case LithiumIon:
		return Spec{
			Name:                 LithiumIon,
			Efficiency:           0.85,
			DoD:                  0.8,
			ChargeRatePerHour:    0.25,
			DischargeChargeRatio: 5,
			SelfDischargePerDay:  0.001,
			PricePerKWh:          525,
			WhPerLiter:           150,
			RatedCycles:          3000,
		}, nil
	case Flywheel:
		return Spec{
			Name:                 Flywheel,
			Efficiency:           0.93,
			DoD:                  1.0,
			ChargeRatePerHour:    4, // can absorb 4C: full charge in 15 min
			DischargeChargeRatio: 1,
			SelfDischargePerDay:  0.50, // standby friction losses dominate
			PricePerKWh:          3000,
			WhPerLiter:           40,
			RatedCycles:          100000,
		}, nil
	case UltraCapacitor:
		return Spec{
			Name:                 UltraCapacitor,
			Efficiency:           0.95,
			DoD:                  1.0,
			ChargeRatePerHour:    20, // near-instant relative to 1 h slots
			DischargeChargeRatio: 1,
			SelfDischargePerDay:  0.20,
			PricePerKWh:          10000,
			WhPerLiter:           10,
			RatedCycles:          500000,
		}, nil
	default:
		return Spec{}, fmt.Errorf("battery: unknown chemistry %q", c)
	}
}

// MustSpec is SpecFor for the built-in chemistries; it panics on error.
func MustSpec(c Chemistry) Spec {
	s, err := SpecFor(c)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate reports a descriptive error for out-of-range parameters.
func (s Spec) Validate() error {
	if s.Efficiency <= 0 || s.Efficiency > 1 {
		return fmt.Errorf("battery: efficiency %v outside (0,1]", s.Efficiency)
	}
	if s.DoD <= 0 || s.DoD > 1 {
		return fmt.Errorf("battery: DoD %v outside (0,1]", s.DoD)
	}
	if s.ChargeRatePerHour <= 0 {
		return fmt.Errorf("battery: non-positive charge rate %v", s.ChargeRatePerHour)
	}
	if s.DischargeChargeRatio < 1 {
		return fmt.Errorf("battery: discharge/charge ratio %v below 1", s.DischargeChargeRatio)
	}
	if s.SelfDischargePerDay < 0 || s.SelfDischargePerDay >= 1 {
		return fmt.Errorf("battery: self-discharge %v outside [0,1)", s.SelfDischargePerDay)
	}
	return nil
}

// VolumeLiters returns the physical volume of a battery of this chemistry
// with the given nominal capacity.
func (s Spec) VolumeLiters(capacity units.Energy) float64 {
	if s.WhPerLiter <= 0 {
		return 0
	}
	return capacity.Wh() / s.WhPerLiter
}

// PriceDollars returns the capital cost of a battery of the given nominal
// capacity.
func (s Spec) PriceDollars(capacity units.Energy) float64 {
	return capacity.KWh() * s.PricePerKWh
}

// Account accumulates the energy flows through a battery over a run. All
// fields are cumulative watt-hours.
type Account struct {
	// InOffered is the renewable surplus presented to the battery.
	InOffered units.Energy
	// InAccepted is the part of the surplus actually drawn (limited by
	// charge rate and free space). InAccepted*Efficiency was stored.
	InAccepted units.Energy
	// EfficiencyLoss = InAccepted*(1-sigma), dissipated while charging.
	EfficiencyLoss units.Energy
	// Rejected = InOffered - InAccepted: surplus the battery could not
	// take; unless another sink exists this renewable energy is lost.
	Rejected units.Energy
	// Out is the energy delivered to the load by discharging.
	Out units.Energy
	// SelfDischargeLoss is the stored energy evaporated over time.
	SelfDischargeLoss units.Energy
}

// Sub returns the fieldwise difference a - prev: the per-interval flow
// deltas between two snapshots of the cumulative account.
func (a Account) Sub(prev Account) Account {
	return Account{
		InOffered:         a.InOffered - prev.InOffered,
		InAccepted:        a.InAccepted - prev.InAccepted,
		EfficiencyLoss:    a.EfficiencyLoss - prev.EfficiencyLoss,
		Rejected:          a.Rejected - prev.Rejected,
		Out:               a.Out - prev.Out,
		SelfDischargeLoss: a.SelfDischargeLoss - prev.SelfDischargeLoss,
	}
}

// TotalLoss returns all energy dissipated inside the battery (not counting
// Rejected, which the caller may have redirected elsewhere).
func (a Account) TotalLoss() units.Energy {
	return a.EfficiencyLoss + a.SelfDischargeLoss
}

// Battery is a stateful ESD instance. The zero value is unusable; call New.
//
//gm:statemirror State Restore
type Battery struct {
	spec     Spec         //gm:ephemeral chemistry configuration, re-supplied by New at restore
	capacity units.Energy // nominal size C //gm:ephemeral configuration, not state
	fadeLoss float64      // capacity fraction lost to fade, in [0,1]; 0 when healthy
	stored   units.Energy // current store, always in [0, DoD*(1-fadeLoss)*C]
	acct     Account
}

// New returns a battery of the given chemistry spec and nominal capacity,
// initially empty. Capacity zero is legal and models "no ESD installed":
// every operation is a no-op.
func New(spec Spec, capacity units.Energy) (*Battery, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if capacity < 0 {
		return nil, fmt.Errorf("battery: negative capacity %v", capacity)
	}
	return &Battery{spec: spec, capacity: capacity}, nil
}

// Infinite returns a battery that can absorb and deliver any amount at any
// rate with the chemistry's efficiency. It is used by the sizing
// experiments ("assume an ideal ESD") to compute panel-area break-evens.
func Infinite(spec Spec) *Battery {
	b := &Battery{spec: spec, capacity: units.Energy(math.Inf(1))}
	return b
}

// Spec returns the chemistry parameters.
func (b *Battery) Spec() Spec { return b.spec }

// Capacity returns the nominal capacity C (fade does not change it; see
// EffectiveCapacity).
func (b *Battery) Capacity() units.Energy { return b.capacity }

// Stored returns the current store.
func (b *Battery) Stored() units.Energy { return b.stored }

// EffectiveCapacity returns the faded capacity fade*C that rate limits and
// the usable ceiling derive from; equal to Capacity while the battery is
// healthy.
func (b *Battery) EffectiveCapacity() units.Energy {
	if math.IsInf(b.capacity.Wh(), 1) {
		return b.capacity
	}
	return b.capacity.Scale(b.fadeFactor())
}

// FadeFactor returns the capacity fade factor in effect, 1 when healthy.
func (b *Battery) FadeFactor() float64 { return b.fadeFactor() }

func (b *Battery) fadeFactor() float64 {
	f := 1 - b.fadeLoss
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Derate applies capacity fade: factor in [0,1] scales the effective
// capacity (and with it the usable ceiling and the C-rate limits, which are
// fractions of capacity). Stored energy above the new ceiling is clamped
// out and booked as self-discharge loss, so the battery's conservation
// identity keeps holding through fade. Returns the clamped energy. Fade is
// absolute, not incremental: call with the current cumulative factor. A
// no-op for the infinite battery.
func (b *Battery) Derate(factor float64) units.Energy {
	if math.IsInf(b.capacity.Wh(), 1) {
		return 0
	}
	if factor < 0 {
		factor = 0
	}
	if factor > 1 {
		factor = 1
	}
	b.fadeLoss = 1 - factor
	var clamped units.Energy
	if u := b.UsableCapacity(); b.stored > u {
		clamped = b.stored - u
		b.stored = u
		b.acct.SelfDischargeLoss += clamped
	}
	return clamped
}

// UsableCapacity returns DoD*fade*C, the ceiling on Stored.
func (b *Battery) UsableCapacity() units.Energy {
	if math.IsInf(b.capacity.Wh(), 1) {
		return b.capacity
	}
	return b.EffectiveCapacity().Scale(b.spec.DoD)
}

// SoC returns the state of charge as stored / usable capacity, in [0,1].
// An infinite battery always reports 0 (it can never fill).
func (b *Battery) SoC() float64 {
	u := b.UsableCapacity()
	if u == 0 || math.IsInf(u.Wh(), 1) {
		return 0
	}
	return b.stored.Wh() / u.Wh()
}

// Account returns the cumulative flow accounting.
func (b *Battery) Account() Account { return b.acct }

// State is the serializable mutable state of a Battery. The chemistry spec
// and nominal capacity are configuration, not state: a checkpointed battery
// is restored onto a freshly constructed one of the same spec, which also
// keeps the infinite battery's +Inf capacity out of JSON.
type State struct {
	// StoredWh is the current store in watt-hours.
	StoredWh float64 `json:"stored_wh"`
	// FadeLoss is the capacity fraction lost to fade, 0 when healthy.
	FadeLoss float64 `json:"fade_loss,omitempty"`
	// Account is the cumulative flow accounting.
	Account Account `json:"account"`
}

// State captures the battery's mutable state for checkpointing.
func (b *Battery) State() State {
	return State{StoredWh: b.stored.Wh(), FadeLoss: b.fadeLoss, Account: b.acct}
}

// Restore overwrites the battery's mutable state with a snapshot taken by
// State from a battery of the same spec and capacity.
func (b *Battery) Restore(st State) {
	b.stored = units.Energy(st.StoredWh)
	b.fadeLoss = st.FadeLoss
	b.acct = st.Account
}

// maxChargeEnergy returns the most input energy the battery may draw over
// dt hours, limited by the charge C-rate and by the free usable space
// (accounting for charging efficiency: drawing e stores e*sigma).
func (b *Battery) maxChargeEnergy(dtHours float64) units.Energy {
	if b.capacity == 0 {
		return 0
	}
	if math.IsInf(b.capacity.Wh(), 1) {
		return units.Energy(math.Inf(1))
	}
	rateCap := units.Energy(b.EffectiveCapacity().Wh() * b.spec.ChargeRatePerHour * dtHours)
	free := b.UsableCapacity() - b.stored
	if free < 0 {
		free = 0
	}
	// Input that would exactly fill the free space.
	fillInput := units.Energy(free.Wh() / b.spec.Efficiency)
	return units.MinEnergy(rateCap, fillInput)
}

// maxDischargeEnergy returns the most output energy deliverable over dt
// hours, limited by the discharge C-rate and by the store.
func (b *Battery) maxDischargeEnergy(dtHours float64) units.Energy {
	if b.capacity == 0 {
		return 0
	}
	if math.IsInf(b.capacity.Wh(), 1) {
		return b.stored
	}
	rateCap := units.Energy(b.EffectiveCapacity().Wh() * b.spec.ChargeRatePerHour * b.spec.DischargeChargeRatio * dtHours)
	return units.MinEnergy(rateCap, b.stored)
}

// Charge offers `offered` watt-hours of surplus over a window of dtHours.
// It returns the energy actually accepted (drawn from the source). The
// store increases by accepted*Efficiency; the difference is the efficiency
// loss. Offering a negative amount panics: settlement code must split flows
// before calling.
func (b *Battery) Charge(offered units.Energy, dtHours float64) (accepted units.Energy) {
	if offered < 0 {
		panic(fmt.Sprintf("battery: negative charge offer %v", offered))
	}
	if dtHours <= 0 {
		panic(fmt.Sprintf("battery: non-positive charge window %v", dtHours))
	}
	b.acct.InOffered += offered
	accepted = units.MinEnergy(offered, b.maxChargeEnergy(dtHours))
	storedDelta := accepted.Scale(b.spec.Efficiency)
	b.stored += storedDelta
	// Clamp FP residue.
	if u := b.UsableCapacity(); b.stored > u {
		b.stored = u
	}
	b.acct.InAccepted += accepted
	b.acct.EfficiencyLoss += accepted - storedDelta
	b.acct.Rejected += offered - accepted
	return accepted
}

// Discharge requests `requested` watt-hours over a window of dtHours and
// returns the energy actually delivered, limited by the discharge rate and
// the store.
func (b *Battery) Discharge(requested units.Energy, dtHours float64) (delivered units.Energy) {
	if requested < 0 {
		panic(fmt.Sprintf("battery: negative discharge request %v", requested))
	}
	if dtHours <= 0 {
		panic(fmt.Sprintf("battery: non-positive discharge window %v", dtHours))
	}
	delivered = units.MinEnergy(requested, b.maxDischargeEnergy(dtHours))
	b.stored -= delivered
	if b.stored < 0 {
		b.stored = 0
	}
	b.acct.Out += delivered
	return delivered
}

// TickSelfDischarge applies self-discharge for a window of dtHours. The
// loss is proportional to the current store and the configured per-day
// rate. It returns the energy lost.
func (b *Battery) TickSelfDischarge(dtHours float64) units.Energy {
	if dtHours <= 0 {
		panic(fmt.Sprintf("battery: non-positive self-discharge window %v", dtHours))
	}
	if b.stored == 0 || math.IsInf(b.stored.Wh(), 1) {
		return 0
	}
	loss := units.Energy(b.stored.Wh() * b.spec.SelfDischargePerDay * dtHours / 24)
	if loss > b.stored {
		loss = b.stored
	}
	b.stored -= loss
	b.acct.SelfDischargeLoss += loss
	return loss
}

// EquivalentFullCycles returns how many complete usable-capacity
// discharge cycles the battery has delivered so far (energy-throughput
// cycle counting, the standard first-order wear metric). Zero for
// zero-capacity and infinite batteries.
func (b *Battery) EquivalentFullCycles() float64 {
	u := b.UsableCapacity()
	if u == 0 || math.IsInf(u.Wh(), 1) {
		return 0
	}
	return b.acct.Out.Wh() / u.Wh()
}

// WearFraction returns the fraction of rated cycle life consumed so far
// (1.0 = end of life). Zero when the spec carries no cycle rating.
func (b *Battery) WearFraction() float64 {
	if b.spec.RatedCycles <= 0 {
		return 0
	}
	return b.EquivalentFullCycles() / b.spec.RatedCycles
}

// ConservationError returns the absolute watt-hour discrepancy in the
// battery's internal energy balance:
//
//	InAccepted*sigma == Stored + Out + SelfDischargeLoss
//
// It should be within floating-point noise of zero at all times and is
// asserted by the simulator's integration tests.
func (b *Battery) ConservationError() float64 {
	if math.IsInf(b.capacity.Wh(), 1) {
		// The identity holds for the infinite battery too, unless nothing
		// flowed yet.
		if b.acct.InAccepted == 0 && b.acct.Out == 0 {
			return 0
		}
	}
	in := b.acct.InAccepted.Wh() * b.spec.Efficiency
	out := b.stored.Wh() + b.acct.Out.Wh() + b.acct.SelfDischargeLoss.Wh()
	return math.Abs(in - out)
}
