package audit

import (
	"fmt"
	"math"
	"strings"
)

// Term is one named quantity of a violated identity, so a violation report
// shows the full term-by-term account, not just the residual.
type Term struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Violation is one failed invariant. Slot is -1 for run-level (cumulative)
// violations.
type Violation struct {
	Slot      int     `json:"slot"`
	Run       string  `json:"run,omitempty"`
	Policy    string  `json:"policy"`
	Invariant string  `json:"invariant"`
	Residual  float64 `json:"residual"`
	Terms     []Term  `json:"terms,omitempty"`
}

// String renders the violation with its term-by-term account.
func (v Violation) String() string {
	var b strings.Builder
	where := fmt.Sprintf("slot %d", v.Slot)
	if v.Slot < 0 {
		where = "run"
	}
	fmt.Fprintf(&b, "%s: %s (policy %s): residual %.9g", where, v.Invariant, v.Policy, v.Residual)
	if v.Run != "" {
		fmt.Fprintf(&b, " [run %s]", v.Run)
	}
	for _, t := range v.Terms {
		fmt.Fprintf(&b, "\n    %-22s %.9g", t.Name, t.Value)
	}
	return b.String()
}

// DefaultTol is the auditor's absolute conservation tolerance in
// watt-hours. Each check scales it by (1 + the magnitude of the terms
// involved), so kilowatt-hour-scale runs are held to the same relative
// precision as watt-hour-scale ones.
const DefaultTol = 1e-6

// Auditor is an Observer that asserts the simulator's bookkeeping
// invariants on every slot and cumulatively at end of run:
//
//	load identity:    Load = Demand + Migration + Transition
//	supply identity:  Load = GreenDirect + BatteryOut + Brown
//	surplus identity: GreenAvail = GreenDirect + BatteryIn + GreenLost
//	battery balance:  ΔStored = BatteryIn − EffLoss − Out − SelfLoss
//	SoC bounds:       0 ≤ Stored ≤ Usable, 0 ≤ SoC ≤ 1
//	coverage:         every object reachable, unless nodes are down
//	deadlines:        completions ≤ submissions; misses ≤ submissions
//	totals:           per-slot sums reproduce the run's final account
//
// plus non-negativity of every flow and strict slot ordering. An Auditor
// audits exactly one run; it is not goroutine-safe. The zero value is ready
// to use.
type Auditor struct {
	// MaxViolations caps how many violations are recorded in detail
	// (default 64); the total count keeps counting past the cap.
	MaxViolations int

	slots      int
	lastSlot   int
	havePrev   bool
	prevStored float64

	// Per-slot running sums, cross-checked against RunTotals at EndRun.
	sumDemand, sumMigration, sumTransition float64
	sumGreenAvail, sumGreenDirect          float64
	sumBatteryOut, sumBrown                float64
	sumBatteryIn, sumGreenLost             float64
	sumEffLoss, sumSelfLoss                float64
	sumCompletions, sumMisses              int
	violationCount                         int
	violations                             []Violation
}

// NewAuditor returns an auditor.
func NewAuditor() *Auditor { return &Auditor{} }

func (a *Auditor) maxV() int {
	if a.MaxViolations > 0 {
		return a.MaxViolations
	}
	return 64
}

func (a *Auditor) record(v Violation) {
	a.violationCount++
	if len(a.violations) < a.maxV() {
		a.violations = append(a.violations, v)
	}
}

// check asserts |residual| <= tol*(1+scale) and records a violation
// carrying the terms otherwise.
func (a *Auditor) check(s *SlotTrace, slot int, invariant string, residual, scale float64, terms []Term) {
	if math.Abs(residual) <= DefaultTol*(1+math.Abs(scale)) {
		return
	}
	v := Violation{Slot: slot, Invariant: invariant, Residual: residual, Terms: terms}
	if s != nil {
		v.Run, v.Policy = s.Run, s.Policy
	}
	a.record(v)
}

// ObserveSlot audits one slot.
func (a *Auditor) ObserveSlot(s SlotTrace) {
	if a.slots > 0 && s.Slot <= a.lastSlot {
		a.record(Violation{Slot: s.Slot, Run: s.Run, Policy: s.Policy,
			Invariant: "slot-order", Residual: float64(s.Slot - a.lastSlot),
			Terms: []Term{{"prev_slot", float64(a.lastSlot)}, {"slot", float64(s.Slot)}}})
	}
	a.lastSlot = s.Slot
	a.slots++

	// Non-negativity of every flow and counter.
	for _, t := range []Term{
		{"demand_wh", s.DemandWh}, {"migration_wh", s.MigrationWh},
		{"transition_wh", s.TransitionWh}, {"load_wh", s.LoadWh},
		{"green_avail_wh", s.GreenAvailWh}, {"green_direct_wh", s.GreenDirectWh},
		{"battery_out_wh", s.BatteryOutWh}, {"brown_wh", s.BrownWh},
		{"battery_in_wh", s.BatteryInWh}, {"green_lost_wh", s.GreenLostWh},
		{"battery_eff_loss_wh", s.BatteryEffLossWh}, {"battery_self_loss_wh", s.BatterySelfLossWh},
		{"starts", float64(s.Starts)}, {"suspensions", float64(s.Suspensions)},
		{"migrations", float64(s.Migrations)}, {"promotions", float64(s.Promotions)},
		{"completions", float64(s.Completions)}, {"deadline_misses", float64(s.DeadlineMisses)},
		{"cold_reads", float64(s.ColdReads)}, {"unserved_reads", float64(s.UnservedReads)},
		{"supply_fault_wh", s.SupplyFaultWh},
	} {
		if t.Value < -DefaultTol || math.IsNaN(t.Value) {
			a.record(Violation{Slot: s.Slot, Run: s.Run, Policy: s.Policy,
				Invariant: "non-negative:" + t.Name, Residual: t.Value, Terms: []Term{t}})
		}
	}

	// Load identity.
	a.check(&s, s.Slot, "load-identity",
		s.LoadWh-(s.DemandWh+s.MigrationWh+s.TransitionWh), s.LoadWh,
		[]Term{{"load_wh", s.LoadWh}, {"demand_wh", s.DemandWh},
			{"migration_wh", s.MigrationWh}, {"transition_wh", s.TransitionWh}})

	// Supply identity: everything powered came from somewhere.
	a.check(&s, s.Slot, "supply-identity",
		s.LoadWh-(s.GreenDirectWh+s.BatteryOutWh+s.BrownWh), s.LoadWh,
		[]Term{{"load_wh", s.LoadWh}, {"green_direct_wh", s.GreenDirectWh},
			{"battery_out_wh", s.BatteryOutWh}, {"brown_wh", s.BrownWh}})

	// Surplus identity: production splits into direct use, storage, loss.
	a.check(&s, s.Slot, "surplus-identity",
		s.GreenAvailWh-(s.GreenDirectWh+s.BatteryInWh+s.GreenLostWh), s.GreenAvailWh,
		[]Term{{"green_avail_wh", s.GreenAvailWh}, {"green_direct_wh", s.GreenDirectWh},
			{"battery_in_wh", s.BatteryInWh}, {"green_lost_wh", s.GreenLostWh}})

	// Direct use cannot exceed either side.
	if over := s.GreenDirectWh - math.Min(s.LoadWh, s.GreenAvailWh); over > DefaultTol*(1+s.GreenDirectWh) {
		a.record(Violation{Slot: s.Slot, Run: s.Run, Policy: s.Policy,
			Invariant: "green-direct-bound", Residual: over,
			Terms: []Term{{"green_direct_wh", s.GreenDirectWh},
				{"load_wh", s.LoadWh}, {"green_avail_wh", s.GreenAvailWh}}})
	}

	if !s.BatteryUnbounded {
		// Battery balance in delta form: what went in minus every outflow
		// and loss equals the change of the store.
		delta := s.BatteryStoredWh - a.prevStored
		if !a.havePrev {
			delta = s.BatteryStoredWh // the store starts empty
		}
		a.check(&s, s.Slot, "battery-balance",
			delta-(s.BatteryInWh-s.BatteryEffLossWh-s.BatteryOutWh-s.BatterySelfLossWh),
			s.BatteryStoredWh+s.BatteryInWh,
			[]Term{{"stored_wh", s.BatteryStoredWh}, {"prev_stored_wh", a.prevStored},
				{"battery_in_wh", s.BatteryInWh}, {"battery_eff_loss_wh", s.BatteryEffLossWh},
				{"battery_out_wh", s.BatteryOutWh}, {"battery_self_loss_wh", s.BatterySelfLossWh}})
		a.prevStored = s.BatteryStoredWh

		// SoC and store bounds.
		if s.BatterySoC < -DefaultTol || s.BatterySoC > 1+DefaultTol {
			a.record(Violation{Slot: s.Slot, Run: s.Run, Policy: s.Policy,
				Invariant: "soc-bounds", Residual: s.BatterySoC,
				Terms: []Term{{"soc", s.BatterySoC}}})
		}
		if s.BatteryStoredWh < -DefaultTol ||
			s.BatteryStoredWh > s.BatteryUsableWh+DefaultTol*(1+s.BatteryUsableWh) {
			a.record(Violation{Slot: s.Slot, Run: s.Run, Policy: s.Policy,
				Invariant: "store-bounds", Residual: s.BatteryStoredWh - s.BatteryUsableWh,
				Terms: []Term{{"stored_wh", s.BatteryStoredWh}, {"usable_wh", s.BatteryUsableWh}}})
		}
	}
	a.havePrev = true

	// Replica coverage must hold whenever the cluster is healthy; with
	// crashed nodes a partial cover is legitimate (the remainder surfaces
	// as unserved reads).
	if !s.CoverageOK && s.FailedNodes == 0 {
		a.record(Violation{Slot: s.Slot, Run: s.Run, Policy: s.Policy,
			Invariant: "replica-coverage", Residual: 1,
			Terms: []Term{{"disks_spun", float64(s.DisksSpun)}, {"nodes_on", float64(s.NodesOn)}}})
	}

	// Fault-injection consistency: crashed nodes imply degraded mode, and
	// the fade factor (when reported) is a fraction.
	if s.FailedNodes > 0 && !s.DegradedMode {
		a.record(Violation{Slot: s.Slot, Run: s.Run, Policy: s.Policy,
			Invariant: "degraded-flag", Residual: float64(s.FailedNodes),
			Terms: []Term{{"failed_nodes", float64(s.FailedNodes)}}})
	}
	if s.BatteryFadeFactor < -DefaultTol || s.BatteryFadeFactor > 1+DefaultTol {
		a.record(Violation{Slot: s.Slot, Run: s.Run, Policy: s.Policy,
			Invariant: "fade-bounds", Residual: s.BatteryFadeFactor,
			Terms: []Term{{"battery_fade_factor", s.BatteryFadeFactor}}})
	}

	a.sumDemand += s.DemandWh
	a.sumMigration += s.MigrationWh
	a.sumTransition += s.TransitionWh
	a.sumGreenAvail += s.GreenAvailWh
	a.sumGreenDirect += s.GreenDirectWh
	a.sumBatteryOut += s.BatteryOutWh
	a.sumBrown += s.BrownWh
	a.sumBatteryIn += s.BatteryInWh
	a.sumGreenLost += s.GreenLostWh
	a.sumEffLoss += s.BatteryEffLossWh
	a.sumSelfLoss += s.BatterySelfLossWh
	a.sumCompletions += s.Completions
	a.sumMisses += s.DeadlineMisses
}

// EndRun cross-checks the per-slot sums against the run's final account and
// the deadline invariants, then reports the audit outcome: nil when the run
// is clean, the aggregated violation error otherwise.
func (a *Auditor) EndRun(tot RunTotals) error {
	sums := []struct {
		name      string
		sum, want float64
	}{
		{"demand_wh", a.sumDemand, tot.DemandWh},
		{"migration_wh", a.sumMigration, tot.MigrationWh},
		{"transition_wh", a.sumTransition, tot.TransitionWh},
		{"green_produced_wh", a.sumGreenAvail, tot.GreenProducedWh},
		{"green_direct_wh", a.sumGreenDirect, tot.GreenDirectWh},
		{"battery_out_wh", a.sumBatteryOut, tot.BatteryOutWh},
		{"brown_wh", a.sumBrown, tot.BrownWh},
		{"battery_in_wh", a.sumBatteryIn, tot.BatteryInWh},
		{"green_lost_wh", a.sumGreenLost, tot.GreenLostWh},
		{"battery_eff_loss_wh", a.sumEffLoss, tot.BatteryEffLossWh},
		{"battery_self_loss_wh", a.sumSelfLoss, tot.BatterySelfLossWh},
	}
	mk := func(name string, sum, want float64) {
		a.record(Violation{Slot: -1, Run: tot.Run, Policy: tot.Policy,
			Invariant: "totals:" + name, Residual: sum - want,
			Terms: []Term{{"slot_sum", sum}, {"run_total", want}}})
	}
	for _, c := range sums {
		if math.Abs(c.sum-c.want) > DefaultTol*(1+math.Abs(c.want)) {
			mk(c.name, c.sum, c.want)
		}
	}
	if a.slots != tot.Slots {
		mk("slots", float64(a.slots), float64(tot.Slots))
	}
	if tot.Completed > tot.Submitted {
		mk("completed<=submitted", float64(tot.Completed), float64(tot.Submitted))
	}
	if tot.DeadlineMisses > tot.Submitted {
		mk("misses<=submitted", float64(tot.DeadlineMisses), float64(tot.Submitted))
	}
	if a.sumCompletions != tot.Completed {
		mk("completions", float64(a.sumCompletions), float64(tot.Completed))
	}
	// Per-slot misses only cover jobs that completed late; jobs that never
	// finished are charged at end of run, so the slot sum is a lower bound.
	if a.sumMisses > tot.DeadlineMisses {
		mk("deadline_misses", float64(a.sumMisses), float64(tot.DeadlineMisses))
	}
	return a.Err()
}

// Violations returns the recorded violations (capped at MaxViolations;
// ViolationCount has the uncapped total).
func (a *Auditor) Violations() []Violation { return a.violations }

// ViolationCount returns how many invariant checks failed, including any
// past the recording cap.
func (a *Auditor) ViolationCount() int { return a.violationCount }

// Err summarizes the audit: nil when clean, otherwise an error naming the
// violation count and the first violation in full.
func (a *Auditor) Err() error {
	if a.violationCount == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d invariant violation(s); first: %s",
		a.violationCount, a.violations[0])
}
