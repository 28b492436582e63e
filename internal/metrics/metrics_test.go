package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func balancedAccount() EnergyAccount {
	return EnergyAccount{
		Demand:             10000,
		MigrationOverhead:  100,
		TransitionOverhead: 50,
		GreenDirect:        4000,
		BatteryOut:         2000,
		Brown:              4150,
		GreenProduced:      7000,
		BatteryInAccepted:  2500,
		GreenLost:          500,
		BatteryEffLoss:     375,
		BatterySelfLoss:    25,
	}
}

func TestConservationOnBalancedAccount(t *testing.T) {
	a := balancedAccount()
	if err := a.ConservationError(); err > 1e-9 {
		t.Fatalf("balanced account reports conservation error %v", err)
	}
}

func TestConservationDetectsImbalance(t *testing.T) {
	a := balancedAccount()
	a.Brown -= 100
	if a.ConservationError() < 99 {
		t.Fatal("conservation check missed a 100 Wh hole")
	}
	b := balancedAccount()
	b.GreenLost += 77
	if b.ConservationError() < 76 {
		t.Fatal("conservation check missed a production-side hole")
	}
}

func TestDerivedRatios(t *testing.T) {
	a := balancedAccount()
	if got := a.TotalLoad(); got != 10150 {
		t.Errorf("TotalLoad %v", got)
	}
	if got := a.TotalSupplied(); got != 10150 {
		t.Errorf("TotalSupplied %v", got)
	}
	wantGU := float64(4000+2000) / 7000
	if got := a.GreenUtilization(); got != wantGU {
		t.Errorf("GreenUtilization %v, want %v", got, wantGU)
	}
	wantBF := 4150.0 / 10150
	if got := a.BrownFraction(); got != wantBF {
		t.Errorf("BrownFraction %v, want %v", got, wantBF)
	}
}

func TestZeroDivisionGuards(t *testing.T) {
	var a EnergyAccount
	if a.GreenUtilization() != 0 || a.BrownFraction() != 0 {
		t.Error("empty account ratios should be zero")
	}
}

func TestSLAAccount(t *testing.T) {
	s := SLAAccount{Submitted: 100, Completed: 80, DeadlineMisses: 5, TotalWaitSlots: 160}
	if s.MeanWaitSlots() != 2 {
		t.Errorf("mean wait %v", s.MeanWaitSlots())
	}
	var zero SLAAccount
	if zero.MeanWaitSlots() != 0 {
		t.Error("zero SLA account should report a zero mean wait")
	}
}

func TestTimeSeriesOrderEnforced(t *testing.T) {
	var ts TimeSeries
	ts.Add(SlotSample{Slot: 0})
	ts.Add(SlotSample{Slot: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order slot did not panic")
		}
	}()
	ts.Add(SlotSample{Slot: 1})
}

func TestTableText(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a", "long-header", "c"}}
	tb.AddRow("x", 1.23456, 42)
	tb.AddRow("yyyyy", "z", 3.0)
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "1.235") {
		t.Fatalf("text table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Headers: []string{"a", "b"}}
	tb.AddRow(1, 2)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n" {
		t.Fatalf("csv = %q", got)
	}
}

func TestTableRaggedRejected(t *testing.T) {
	tb := Table{Headers: []string{"a", "b"}}
	tb.Rows = append(tb.Rows, []string{"only-one"})
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err == nil {
		t.Error("ragged table should fail")
	}
	if err := tb.WriteCSV(&buf); err == nil {
		t.Error("ragged CSV should fail")
	}
	if !strings.Contains(tb.String(), "invalid table") {
		t.Error("String should surface the error")
	}
}
