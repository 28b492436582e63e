package audit

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// cleanSlot returns a self-consistent slot trace: every identity the
// auditor checks holds exactly.
func cleanSlot(slot int, prevStored float64) SlotTrace {
	const (
		demand     = 1000.0
		mig        = 10.0
		trans      = 5.0
		greenAvail = 1200.0
		batIn      = 100.0 // of the 185 surplus
		eff        = 0.85
		out        = 0.0
		selfLoss   = 0.1
	)
	load := demand + mig + trans
	direct := load // green covers everything this slot
	if greenAvail < load {
		direct = greenAvail
	}
	stored := prevStored + batIn*eff - out - selfLoss
	return SlotTrace{
		Slot: slot, Policy: "test", SlotHours: 1,
		DemandWh: demand, MigrationWh: mig, TransitionWh: trans, LoadWh: load,
		GreenAvailWh: greenAvail, GreenDirectWh: direct, BatteryOutWh: out, BrownWh: load - direct,
		BatteryInWh: batIn, GreenLostWh: greenAvail - direct - batIn,
		BatteryEffLossWh: batIn * (1 - eff), BatterySelfLossWh: selfLoss,
		BatteryStoredWh: stored, BatteryUsableWh: 8000, BatterySoC: stored / 8000,
		Completions: 1,
		CoverageOK:  true,
	}
}

// cleanRun feeds n consistent slots into the auditor and returns the
// matching totals.
func cleanRun(a *Auditor, n int) RunTotals {
	tot := RunTotals{Policy: "test", Slots: n, Submitted: n, Completed: n}
	stored := 0.0
	for i := 0; i < n; i++ {
		s := cleanSlot(i, stored)
		stored = s.BatteryStoredWh
		a.ObserveSlot(s)
		tot.DemandWh += s.DemandWh
		tot.MigrationWh += s.MigrationWh
		tot.TransitionWh += s.TransitionWh
		tot.GreenProducedWh += s.GreenAvailWh
		tot.GreenDirectWh += s.GreenDirectWh
		tot.BatteryOutWh += s.BatteryOutWh
		tot.BrownWh += s.BrownWh
		tot.BatteryInWh += s.BatteryInWh
		tot.GreenLostWh += s.GreenLostWh
		tot.BatteryEffLossWh += s.BatteryEffLossWh
		tot.BatterySelfLossWh += s.BatterySelfLossWh
	}
	return tot
}

func TestAuditorCleanRun(t *testing.T) {
	a := NewAuditor()
	tot := cleanRun(a, 10)
	if err := a.EndRun(tot); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	if a.ViolationCount() != 0 {
		t.Fatalf("violations on clean run: %v", a.Violations())
	}
}

func TestAuditorCatchesSupplyGap(t *testing.T) {
	a := NewAuditor()
	s := cleanSlot(0, 0)
	s.BrownWh += 1 // phantom grid draw: supply now exceeds load
	a.ObserveSlot(s)
	found := false
	for _, v := range a.Violations() {
		if v.Invariant == "supply-identity" {
			found = true
			if v.Slot != 0 || v.Policy != "test" {
				t.Fatalf("violation context wrong: %+v", v)
			}
			if len(v.Terms) != 4 {
				t.Fatalf("want term-by-term account, got %+v", v.Terms)
			}
		}
	}
	if !found {
		t.Fatalf("supply gap not caught; got %v", a.Violations())
	}
	if a.Err() == nil {
		t.Fatal("Err must be non-nil after a violation")
	}
	if !strings.Contains(a.Err().Error(), "supply-identity") {
		t.Fatalf("error does not name the invariant: %v", a.Err())
	}
}

func TestAuditorCatchesBatteryImbalanceAndBounds(t *testing.T) {
	a := NewAuditor()
	s := cleanSlot(0, 0)
	s.BatteryStoredWh += 5 // energy appearing from nowhere
	a.ObserveSlot(s)
	if !hasInvariant(a, "battery-balance") {
		t.Fatalf("battery imbalance not caught; got %v", a.Violations())
	}

	b := NewAuditor()
	s2 := cleanSlot(0, 0)
	s2.BatterySoC = 1.5
	b.ObserveSlot(s2)
	if !hasInvariant(b, "soc-bounds") {
		t.Fatalf("SoC overflow not caught; got %v", b.Violations())
	}

	c := NewAuditor()
	s3 := cleanSlot(0, 0)
	s3.BatteryUnbounded = true
	s3.BatteryStoredWh += 1e9 // ignored for the ideal ESD
	c.ObserveSlot(s3)
	if c.ViolationCount() != 0 {
		t.Fatalf("unbounded battery must skip balance checks: %v", c.Violations())
	}
}

func TestAuditorCoverageInvariant(t *testing.T) {
	a := NewAuditor()
	s := cleanSlot(0, 0)
	s.CoverageOK = false
	a.ObserveSlot(s)
	if !hasInvariant(a, "replica-coverage") {
		t.Fatalf("coverage hole not caught; got %v", a.Violations())
	}

	b := NewAuditor()
	s.FailedNodes = 2 // partial coverage is legitimate during failures
	b.ObserveSlot(s)
	if hasInvariant(b, "replica-coverage") {
		t.Fatal("coverage must be waived while nodes are down")
	}
}

func TestAuditorCatchesNegativeFlowAndSlotOrder(t *testing.T) {
	a := NewAuditor()
	s := cleanSlot(0, 0)
	s.BrownWh, s.GreenDirectWh = -50, s.GreenDirectWh+50 // identities still hold
	a.ObserveSlot(s)
	if !hasInvariant(a, "non-negative:brown_wh") {
		t.Fatalf("negative brown not caught; got %v", a.Violations())
	}

	b := NewAuditor()
	b.ObserveSlot(cleanSlot(3, 0))
	b.ObserveSlot(cleanSlot(3, cleanSlot(3, 0).BatteryStoredWh))
	if !hasInvariant(b, "slot-order") {
		t.Fatalf("slot order not caught; got %v", b.Violations())
	}
}

func TestAuditorCumulativeTotals(t *testing.T) {
	a := NewAuditor()
	tot := cleanRun(a, 5)
	tot.BrownWh += 3 // run summary disagrees with the slot sums
	if err := a.EndRun(tot); err == nil {
		t.Fatal("totals drift not caught")
	}
	if !hasInvariant(a, "totals:brown_wh") {
		t.Fatalf("want totals:brown_wh, got %v", a.Violations())
	}

	b := NewAuditor()
	tot2 := cleanRun(b, 5)
	tot2.Completed = tot2.Submitted + 1
	if err := b.EndRun(tot2); err == nil {
		t.Fatal("completed>submitted not caught")
	}
}

func TestAuditorViolationCap(t *testing.T) {
	a := &Auditor{MaxViolations: 2}
	for i := 0; i < 5; i++ {
		s := cleanSlot(i, 0)
		s.BatteryUnbounded = true // silence balance checks; corrupt one identity only
		s.GreenLostWh += 100
		a.ObserveSlot(s)
	}
	if len(a.Violations()) != 2 {
		t.Fatalf("recorded %d, want cap 2", len(a.Violations()))
	}
	if a.ViolationCount() != 5 {
		t.Fatalf("counted %d, want 5", a.ViolationCount())
	}
}

func hasInvariant(a *Auditor, inv string) bool {
	for _, v := range a.Violations() {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}

func TestViolationStringCarriesTerms(t *testing.T) {
	v := Violation{Slot: 7, Policy: "greenmatch", Invariant: "supply-identity",
		Residual: -1.5, Terms: []Term{{"load_wh", 100}, {"brown_wh", 98.5}}}
	s := v.String()
	for _, want := range []string{"slot 7", "supply-identity", "greenmatch", "load_wh", "brown_wh"} {
		if !strings.Contains(s, want) {
			t.Fatalf("violation string %q missing %q", s, want)
		}
	}
	if rs := (Violation{Slot: -1, Invariant: "totals:slots"}).String(); !strings.Contains(rs, "run:") {
		t.Fatalf("run-level violation should render as run-level: %q", rs)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.ObserveSlot(cleanSlot(0, 0))
	j.ObserveSlot(cleanSlot(1, 0))
	if err := j.EndRun(RunTotals{Policy: "test", Slots: 2}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 2 slot lines + totals, got %d", len(lines))
	}
	var s SlotTrace
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if s.LoadWh != 1015 || s.Slot != 0 {
		t.Fatalf("round-trip mismatch: %+v", s)
	}
	var tot struct {
		Kind  string `json:"kind"`
		Slots int    `json:"slots"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &tot); err != nil || tot.Kind != "totals" || tot.Slots != 2 {
		t.Fatalf("totals line wrong: %q (%v)", lines[2], err)
	}
}

func TestCSVSink(t *testing.T) {
	var buf bytes.Buffer
	c := NewCSV(&buf)
	c.ObserveSlot(cleanSlot(0, 0))
	c.ObserveSlot(cleanSlot(1, 0))
	if err := c.EndRun(RunTotals{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "run,slot,policy") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if got, want := len(strings.Split(lines[1], ",")), len(strings.Split(lines[0], ",")); got != want {
		t.Fatalf("row has %d cells, header %d", got, want)
	}
}

func TestPromSink(t *testing.T) {
	var buf bytes.Buffer
	p := NewProm(&buf)
	p.ObserveSlot(cleanSlot(0, 0))
	err := p.EndRun(RunTotals{Run: "E1/ref", Policy: "greenmatch", Slots: 168, BrownWh: 12345.5})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`greenmatch_brown_wh{policy="greenmatch",run="E1/ref"} 12345.5`,
		"# TYPE greenmatch_slots gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestTeeLabeledLimit(t *testing.T) {
	a, b := &collect{}, &collect{}
	obs := Labeled("run-7", Tee(Limit(2, a), b))
	for i := 0; i < 4; i++ {
		obs.ObserveSlot(cleanSlot(i, 0))
	}
	if err := obs.EndRun(RunTotals{Policy: "test"}); err != nil {
		t.Fatal(err)
	}
	if len(a.slots) != 2 {
		t.Fatalf("limit leaked: %d slots", len(a.slots))
	}
	if len(b.slots) != 4 {
		t.Fatalf("tee dropped: %d slots", len(b.slots))
	}
	if b.slots[0].Run != "run-7" || b.tot.Run != "run-7" {
		t.Fatalf("label not applied: %+v %+v", b.slots[0], b.tot)
	}
}

// collect is a test observer recording everything it sees.
type collect struct {
	slots []SlotTrace
	tot   RunTotals
}

func (c *collect) ObserveSlot(s SlotTrace) { c.slots = append(c.slots, s) }
func (c *collect) EndRun(t RunTotals) error {
	c.tot = t
	return nil
}
