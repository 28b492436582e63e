package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunScenarioEmbeddedReference: with no scenario file, -kind run
// simulates the embedded reference scaled by -scale. At a quarter with
// -audit the run passes the conservation audit, and -slots caps the slot
// traces, which the JSONL sink follows with one totals line.
func TestRunScenarioEmbeddedReference(t *testing.T) {
	const slots = 48
	var b bytes.Buffer
	if err := runScenario(&b, "", 0.25, "jsonl", true, slots); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != slots+1 {
		t.Fatalf("got %d JSONL lines, want %d slot traces and a totals line", len(lines), slots)
	}
	for i, line := range lines {
		var rec struct {
			Kind string `json:"kind"`
			Run  string `json:"run"`
			Slot int    `json:"slot"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
		if rec.Run != "reference-week" {
			t.Errorf("line %d: run %q, want the reference's name", i, rec.Run)
		}
		switch {
		case i == slots && rec.Kind != "totals":
			t.Errorf("last line is not the totals: %s", line)
		case i < slots && (rec.Kind != "" || rec.Slot != i):
			t.Errorf("line %d is not slot %d's trace: %s", i, i, line)
		}
	}
}

func TestRunScenarioMissingFile(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	if err := runScenario(io.Discard, missing, 0.25, "jsonl", false, 0); err == nil {
		t.Fatal("a missing scenario file should be an error")
	}
}
