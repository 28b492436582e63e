package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/scenarios"
)

// TestReferenceConfigIsCompiledReference pins core's hand-built test
// fixture to scenarios/reference.json: compiled with no ESD and the
// Baseline policy, the reference is deeply equal to referenceConfig, so
// the fixture cannot drift into a second description of the run.
func TestReferenceConfigIsCompiledReference(t *testing.T) {
	sc, err := scenarios.Load("reference")
	if err != nil {
		t.Fatal(err)
	}
	sc.BatteryKWh = 0
	sc.Policy = "baseline"
	got, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if want := core.ReferenceConfig(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled reference differs from the core fixture\ngot:  %+v\nwant: %+v", got, want)
	}
}
