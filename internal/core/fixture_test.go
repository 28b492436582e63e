package core

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/solar"
	"repro/internal/storage"
	"repro/internal/workload"
)

// referenceConfig is scenarios/reference.json compiled at paper scale,
// with no ESD and the Baseline policy: 30 nodes, the reference week and
// 165.6 m^2 of PV. Package scenario imports core, so core's tests cannot
// compile it; this is the one hand-built copy, and the external
// TestReferenceConfigIsCompiledReference pins it to the compiled scenario.
func referenceConfig(t testing.TB) Config {
	t.Helper()
	return Config{
		Cluster:      storage.DefaultConfig(),
		Trace:        genTrace(t, workload.DefaultGen()),
		Green:        referenceSupply(t, 165.6),
		Policy:       sched.Baseline{},
		ReadsPerSlot: 200,
		Seed:         1,
	}.ApplyDefaults()
}

// referenceSupply is the reference farm's supply for a panel area: three
// weeks, so that jobs deferred past the one-week arrival horizon still
// see the real diurnal supply while the run drains.
func referenceSupply(t testing.TB, areaM2 float64) solar.Series {
	t.Helper()
	farm := solar.DefaultFarm(areaM2)
	farm.Slots = 24 * 21
	return genSupply(t, farm)
}

// genTrace generates a workload trace, failing t on error.
func genTrace(t testing.TB, gen workload.GenConfig) workload.Trace {
	t.Helper()
	tr, err := workload.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// genSupply generates a solar trace, failing t on error.
func genSupply(t testing.TB, farm solar.FarmConfig) solar.Series {
	t.Helper()
	s, err := solar.Generate(farm)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
