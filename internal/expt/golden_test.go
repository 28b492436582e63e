package expt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden runs experiment id at scale 0.2, seed 1 and compares its
// tables, each rendered by WriteText with no separator, to the committed
// file testdata/e<N>_scale02.golden. This catches accidental
// nondeterminism (map iteration leaking into decisions) and unintended
// behavioural drift across refactors. After an intentional simulator
// change, regenerate with:
//
//	UPDATE_GOLDEN=1 go test ./internal/expt -run 'Golden'
func checkGolden(t *testing.T, id string) {
	t.Helper()
	if testing.Short() {
		t.Skip("golden comparison in -short mode")
	}
	tables, err := ByIDMust(id).Run(Params{Scale: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tb := range tables {
		if err := tb.WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", strings.ToLower(id)+"_scale02.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
	}
}

// TestE8Golden pins the headline policy table.
func TestE8Golden(t *testing.T) { checkGolden(t, "E8") }

// TestE14Golden pins the failure-injection table: the crash / eviction /
// repair machinery is the most state-heavy path in the simulator and the
// most likely to pick up accidental nondeterminism.
func TestE14Golden(t *testing.T) { checkGolden(t, "E14") }

// TestExperimentGoldens pins every other registered experiment the same
// way, except E9, whose columns are wall-clock solver timings.
func TestExperimentGoldens(t *testing.T) {
	for _, e := range All() {
		switch e.ID {
		case "E9", "E8", "E14":
			continue
		}
		t.Run(e.ID, func(t *testing.T) { checkGolden(t, e.ID) })
	}
}
