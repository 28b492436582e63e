package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/scenarios"
)

// TestCarriedOrderOnScenarios checks the carried FFD order on every full
// slot of every shipped scenario, at full scale (a quarter under -short).
func TestCarriedOrderOnScenarios(t *testing.T) {
	scale := 1.0
	if testing.Short() {
		scale = 0.25
	}
	for _, name := range scenarios.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			raw, err := scenarios.Bytes(name)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scenario.Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := sc.Scaled(scale).Compile()
			if err != nil {
				t.Fatal(err)
			}
			full, err := core.CheckCarriedOrder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if full == 0 {
				t.Fatal("no full slot ran")
			}
		})
	}
}
