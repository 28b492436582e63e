package core

import (
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/sched"
	"repro/internal/units"
)

// recorder keeps every trace and the totals for inspection.
type recorder struct {
	slots []audit.SlotTrace
	tot   audit.RunTotals
	ended bool
}

func (r *recorder) ObserveSlot(s audit.SlotTrace) { r.slots = append(r.slots, s) }
func (r *recorder) EndRun(t audit.RunTotals) error {
	r.tot, r.ended = t, true
	return nil
}

func TestObserverTraceMatchesResult(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Policy = sched.GreenMatch{}
	cfg.BatteryCapacityWh = 20 * units.KilowattHour
	rec := &recorder{}
	cfg.Observer = rec
	res := run(t, cfg)

	if len(rec.slots) != res.Slots {
		t.Fatalf("observed %d slots, result says %d", len(rec.slots), res.Slots)
	}
	if !rec.ended {
		t.Fatal("EndRun not called")
	}
	var brown, demand, greenIn, starts, completions float64
	for i, s := range rec.slots {
		if s.Slot != i {
			t.Fatalf("slot %d traced as %d", i, s.Slot)
		}
		if s.Policy != res.Policy {
			t.Fatalf("policy %q, want %q", s.Policy, res.Policy)
		}
		brown += s.BrownWh
		demand += s.DemandWh
		greenIn += s.GreenAvailWh
		starts += float64(s.Starts)
		completions += float64(s.Completions)
	}
	tol := 1e-6 * (1 + float64(res.Energy.Brown))
	if math.Abs(brown-float64(res.Energy.Brown)) > tol {
		t.Fatalf("per-slot brown sums to %v, result has %v", brown, res.Energy.Brown)
	}
	if math.Abs(demand-float64(res.Energy.Demand)) > 1e-6*(1+demand) {
		t.Fatalf("per-slot demand sums to %v, result has %v", demand, res.Energy.Demand)
	}
	if math.Abs(greenIn-float64(res.Energy.GreenProduced)) > 1e-6*(1+greenIn) {
		t.Fatalf("per-slot green sums to %v, result has %v", greenIn, res.Energy.GreenProduced)
	}
	if int(completions) != res.SLA.Completed {
		t.Fatalf("per-slot completions %v, result %d", completions, res.SLA.Completed)
	}
	if int(starts) < res.SLA.Completed {
		t.Fatalf("only %v starts for %d completions", starts, res.SLA.Completed)
	}
	if rec.tot.BrownWh != float64(res.Energy.Brown) || rec.tot.Slots != res.Slots {
		t.Fatalf("totals mismatch: %+v vs %+v", rec.tot, res.Energy)
	}
}

func TestAuditorCleanAcrossPolicies(t *testing.T) {
	policies := []sched.Policy{
		sched.Baseline{},
		sched.SpinDown{},
		sched.DeferFraction{Fraction: 0.5},
		sched.GreenMatch{},
		sched.GreenMatch{Fraction: 0.5},
	}
	for _, p := range policies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			cfg := smallConfig(t)
			cfg.Policy = p
			cfg.BatteryCapacityWh = 20 * units.KilowattHour
			a := audit.NewAuditor()
			cfg.Observer = a
			run(t, cfg) // run() fails the test if the auditor errors EndRun
			if a.ViolationCount() != 0 {
				t.Fatalf("auditor violations: %v", a.Violations())
			}
		})
	}
}

func TestAuditorCleanWithInfiniteBattery(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Policy = sched.GreenMatch{}
	cfg.BatteryCapacityWh = units.Energy(math.Inf(1))
	a := audit.NewAuditor()
	cfg.Observer = a
	run(t, cfg)
	if a.ViolationCount() != 0 {
		t.Fatalf("auditor violations with ideal ESD: %v", a.Violations())
	}
}

func TestAuditorCleanUnderFailures(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Policy = sched.GreenMatch{}
	cfg.BatteryCapacityWh = 10 * units.KilowattHour
	cfg.Faults.CrashMTBFHours = 300
	cfg = cfg.ApplyDefaults()
	a := audit.NewAuditor()
	cfg.Observer = a
	res := run(t, cfg)
	if res.SLA.NodeFailures == 0 {
		t.Fatal("failure injection produced no failures; test is vacuous")
	}
	if a.ViolationCount() != 0 {
		t.Fatalf("auditor violations under failures: %v", a.Violations())
	}
}

// TestObserverDoesNotPerturbRun asserts the trace layer is purely
// observational: the same config with and without an observer produces an
// identical result.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Policy = sched.GreenMatch{}
	cfg.BatteryCapacityWh = 20 * units.KilowattHour
	base := run(t, cfg)

	cfg.Observer = audit.NewAuditor()
	observed := run(t, cfg)
	cfg.Observer = nil

	if *base != *observed {
		t.Fatalf("observer changed the run:\n  base     %+v\n  observed %+v", base, observed)
	}
}

// TestAuditorFailsRunOnViolation wires an observer whose EndRun always
// errors and asserts Run surfaces it.
func TestAuditorFailsRunOnViolation(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Observer = corrupting{}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("Run must fail when the observer's EndRun errors")
	}
}

// corrupting forwards nothing and fails the run at EndRun, standing in for
// an auditor that found violations.
type corrupting struct{}

func (corrupting) ObserveSlot(audit.SlotTrace) {}
func (corrupting) EndRun(audit.RunTotals) error {
	return errFromAudit
}

var errFromAudit = &auditErr{}

type auditErr struct{}

func (*auditErr) Error() string { return "audit: synthetic violation" }
