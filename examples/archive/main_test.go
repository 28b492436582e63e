package main

import (
	"slices"
	"strings"
	"testing"
)

func TestArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("three full simulations in -short mode")
	}
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(out, "\n")
	header := []string{"policy", "brown_kwh", "green_util_%", "disk_spun_hours", "spindowns", "cold_reads", "misses"}
	if len(lines) < 6 || !slices.Equal(strings.Fields(lines[1]), header) {
		t.Fatalf("want header %v on line 2:\n%s", header, out)
	}
	// One row per policy, in policy order, after the title, header and rule.
	for i, policy := range []string{"baseline", "spindown", "greenmatch"} {
		if f := strings.Fields(lines[3+i]); len(f) != len(header) || f[0] != policy {
			t.Errorf("row %d is not a %s row: %q", i, policy, lines[3+i])
		}
	}
	if lines[6] != "" {
		t.Errorf("want exactly three rows:\n%s", out)
	}
}
