package main

import (
	"slices"
	"strings"
	"testing"
)

func TestBatterySizing(t *testing.T) {
	if testing.Short() {
		t.Skip("16 full simulations in -short mode")
	}
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(out, "\n")
	header := []string{"battery_kwh", "baseline", "greenmatch"}
	if len(lines) < 12 || !slices.Equal(strings.Fields(lines[1]), header) {
		t.Fatalf("want header %v on line 2:\n%s", header, out)
	}
	// One row per battery size after the title, header and rule.
	for i, kwh := range []string{"0", "5", "10", "15", "20", "25", "30", "40"} {
		if f := strings.Fields(lines[3+i]); len(f) != len(header) || f[0] != kwh {
			t.Errorf("row %d is not the %s kWh row: %q", i, kwh, lines[3+i])
		}
	}
	if lines[11] != "" {
		t.Errorf("want exactly eight rows:\n%s", out)
	}
	for _, policy := range []string{"baseline", "greenmatch"} {
		if !strings.Contains(out, "\n"+policy+" ") {
			t.Errorf("no summary line for %s:\n%s", policy, out)
		}
	}
}
