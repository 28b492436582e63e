package core_test

import (
	"testing"

	"repro/internal/core"
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
			sc, err := scenarios.Load(name)
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
