package main

import (
	"slices"
	"strings"
	"testing"
)

func TestPanelSizing(t *testing.T) {
	if testing.Short() {
		t.Skip("nine full simulations in -short mode")
	}
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(out, "\n")
	header := []string{"area_m2", "produced_kwh", "supply_ratio", "steady_brown_kwh"}
	if len(lines) < 13 || !slices.Equal(strings.Fields(lines[1]), header) {
		t.Fatalf("want header %v on line 2:\n%s", header, out)
	}
	// One row per panel area after the title, header and rule.
	for i, area := range []string{"0", "10", "20", "30", "40", "50", "60", "80", "100"} {
		if f := strings.Fields(lines[3+i]); len(f) != len(header) || f[0] != area {
			t.Errorf("row %d is not the %s m2 row: %q", i, area, lines[3+i])
		}
	}
	if lines[12] != "" {
		t.Errorf("want exactly nine rows:\n%s", out)
	}
	if !strings.Contains(out, "Break-even panel dimension") {
		t.Errorf("no break-even in the sweep:\n%s", out)
	}
}
