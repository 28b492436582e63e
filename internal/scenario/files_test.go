package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// TestShippedScenariosCompile keeps every curated scenario file in
// /scenarios valid: each must parse (unknown fields rejected) and compile
// into a runnable config.
func TestShippedScenariosCompile(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	all, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("scenarios directory missing: %v", err)
	}
	// The directory also hosts the embed package source; only the JSON
	// files are scenarios.
	var entries []os.DirEntry
	for _, e := range all {
		if filepath.Ext(e.Name()) == ".json" {
			entries = append(entries, e)
		}
	}
	if len(entries) < 5 {
		t.Fatalf("expected at least 5 curated scenarios, found %d", len(entries))
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			s, err := Load(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if s.Name == "" {
				t.Error("scenario has no name")
			}
			if _, err := s.Compile(); err != nil {
				t.Fatalf("compile: %v", err)
			}
		})
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); !os.IsNotExist(err) {
		t.Fatalf("got %v, want a not-exist error", err)
	}
}
