package metrics

import (
	"strings"
	"testing"
)

func TestSLAAccountSub(t *testing.T) {
	prev := SLAAccount{Submitted: 10, Completed: 8, DeadlineMisses: 1,
		TotalWaitSlots: 20, MaxWaitSlots: 5, Migrations: 3, Suspensions: 2,
		ColdReads: 4, UnservedReads: 1, NodeFailures: 1, Evictions: 2,
		RepairJobsGenerated: 1, OverloadEvents: 1, OverloadMigrations: 1,
		ThrottledSlots: 1}
	cur := SLAAccount{Submitted: 15, Completed: 12, DeadlineMisses: 2,
		TotalWaitSlots: 31, MaxWaitSlots: 7, Migrations: 6, Suspensions: 5,
		ColdReads: 9, UnservedReads: 2, NodeFailures: 2, Evictions: 4,
		RepairJobsGenerated: 3, OverloadEvents: 2, OverloadMigrations: 3,
		ThrottledSlots: 2}
	d := cur.Sub(prev)
	want := SLAAccount{Submitted: 5, Completed: 4, DeadlineMisses: 1,
		TotalWaitSlots: 11, MaxWaitSlots: 2, Migrations: 3, Suspensions: 3,
		ColdReads: 5, UnservedReads: 1, NodeFailures: 1, Evictions: 2,
		RepairJobsGenerated: 2, OverloadEvents: 1, OverloadMigrations: 2,
		ThrottledSlots: 1}
	if d != want {
		t.Fatalf("Sub = %+v\nwant %+v", d, want)
	}
	if z := cur.Sub(cur); z != (SLAAccount{}) {
		t.Fatalf("Sub with itself = %+v, want zero", z)
	}
}

func TestTableRaggedRowsRejected(t *testing.T) {
	tb := &Table{Title: "t", Headers: []string{"a", "b"}}
	tb.AddRow(1) // one cell for two headers
	if err := tb.WriteText(&strings.Builder{}); err == nil {
		t.Fatal("WriteText must reject ragged rows")
	}
	if err := tb.WriteCSV(&strings.Builder{}); err == nil {
		t.Fatal("WriteCSV must reject ragged rows")
	}
	if s := tb.String(); !strings.Contains(s, "invalid table") {
		t.Fatalf("String must surface the validation error, got %q", s)
	}
}

func TestTableStringAndCellFormatting(t *testing.T) {
	tb := &Table{Title: "fmt", Headers: []string{"f64", "f32", "str", "int"}}
	tb.AddRow(1.23456789, float32(2.5), "x", 42)
	s := tb.String()
	for _, want := range []string{"1.235", "2.5", "x", "42", "fmt"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
	var csv strings.Builder
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "f64,f32,str,int\n") {
		t.Fatalf("CSV header wrong: %q", csv.String())
	}
}
