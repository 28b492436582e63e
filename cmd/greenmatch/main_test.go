package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/scenario"
	"repro/internal/solar"
	"repro/internal/storage"
	"repro/internal/units"
	"repro/internal/wind"
	"repro/internal/workload"
	"repro/scenarios"
)

func testConfig(t *testing.T, policy, source, chemistry, forecaster string) core.Config {
	t.Helper()
	cfg, err := buildConfig(runFlags{policy: policy, fraction: 0.5, solver: "flow", scale: 0.05,
		profile: "sunny", source: source, batteryKWh: 5, chemistry: chemistry, forecaster: forecaster, seed: 1}, false)
	if err != nil {
		t.Fatalf("buildConfig(%s, %s, %s, %s): %v", policy, source, chemistry, forecaster, err)
	}
	return cfg
}

func TestBuildConfigPolicies(t *testing.T) {
	want := map[string]string{
		"baseline":   "baseline",
		"spindown":   "spindown",
		"defer":      "defer50%",
		"greenmatch": "greenmatch",
		"mixed":      "mixed50%",
	}
	for flag, name := range want {
		cfg := testConfig(t, flag, "solar", "lithium-ion", "perfect")
		if cfg.Policy.Name() != name {
			t.Errorf("policy flag %q produced %q, want %q", flag, cfg.Policy.Name(), name)
		}
	}
}

func TestBuildConfigSources(t *testing.T) {
	solarCfg := testConfig(t, "baseline", "solar", "lithium-ion", "perfect")
	windCfg := testConfig(t, "baseline", "wind", "lithium-ion", "perfect")
	hybridCfg := testConfig(t, "baseline", "hybrid", "lithium-ion", "perfect")
	if windCfg.Green.Slots() != solarCfg.Green.Slots() || hybridCfg.Green.Slots() != solarCfg.Green.Slots() {
		t.Error("sources should share the trace length")
	}
	// Wind is normalized to the solar trace's total energy.
	se := solarCfg.Green.(solar.Series).TotalEnergy()
	we := windCfg.Green.(solar.Series).TotalEnergy()
	if we < se*0.99 || we > se*1.01 {
		t.Errorf("wind energy %v not normalized to solar %v", we, se)
	}
}

func TestBuildConfigForecasters(t *testing.T) {
	for _, f := range []string{"perfect", "persistence", "ma", "ewma"} {
		cfg := testConfig(t, "greenmatch", "solar", "lithium-ion", f)
		if cfg.Forecaster == nil {
			t.Errorf("forecaster %q not set", f)
		}
	}
}

func TestBuildConfigErrors(t *testing.T) {
	cases := []struct{ policy, source, chem, fc string }{
		{"magic", "solar", "lithium-ion", "perfect"},
		{"baseline", "coal", "lithium-ion", "perfect"},
		{"baseline", "solar", "potato", "perfect"},
		{"baseline", "solar", "lithium-ion", "astrology"},
	}
	for _, c := range cases {
		f := runFlags{policy: c.policy, fraction: 1, solver: "flow", scale: 0.05,
			profile: "sunny", source: c.source, chemistry: c.chem, forecaster: c.fc, seed: 1}
		if _, err := buildConfig(f, false); err == nil {
			t.Errorf("buildConfig(%+v) should fail", c)
		}
	}
}

// legacyBuildConfig is the flag-to-config builder greenmatch used before it
// compiled a scenario, kept as the oracle the scenario path must reproduce
// exactly. It starts from the zero Config; the comparison fills the rest
// with Config.ApplyDefaults, the one defaults table.
func legacyBuildConfig(policyName string, fraction float64, solver string, scale float64,
	nodes int, area float64, profile, source string, batteryKWh float64,
	chemistry, forecaster string, seed int64, recordSeries bool) (core.Config, error) {

	var cfg core.Config
	cfg.Seed = seed
	cfg.RecordSeries = recordSeries

	// Cluster.
	cl := storage.DefaultConfig()
	if nodes > 0 {
		cl.Nodes = nodes
	} else {
		cl.Nodes = max(4, int(30*scale+0.5))
	}
	cl.Objects = max(100, int(3000*scale+0.5))
	cfg.Cluster = cl
	cfg.ReadsPerSlot = 200 * scale

	// Workload.
	gen := workload.Scaled(scale)
	gen.Seed = seed
	tr, err := workload.Generate(gen)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Trace = tr

	// Renewable supply.
	if area <= 0 {
		area = 165.6 * scale
	}
	scfg := solar.DefaultFarm(area)
	scfg.Profile = solar.Profile(profile)
	scfg.Slots = 24 * 21
	scfg.Seed = seed
	sol, err := solar.Generate(scfg)
	if err != nil {
		return core.Config{}, err
	}
	switch source {
	case "solar":
		cfg.Green = sol
	case "wind", "hybrid":
		wcfg := wind.DefaultFarm()
		wcfg.Slots = scfg.Slots
		wcfg.Seed = seed
		w, err := wind.Generate(wcfg)
		if err != nil {
			return core.Config{}, err
		}
		// Match the solar trace's total energy so sources are comparable.
		if tot := w.TotalEnergy(); tot > 0 {
			w = w.Scale(sol.TotalEnergy().Wh() / tot.Wh())
		}
		if source == "wind" {
			cfg.Green = w
		} else {
			cfg.Green = wind.Hybrid(sol.Scale(0.5), w.Scale(0.5))
		}
	default:
		return core.Config{}, fmt.Errorf("unknown source %q", source)
	}

	// ESD.
	spec, err := battery.SpecFor(battery.Chemistry(chemistry))
	if err != nil {
		return core.Config{}, err
	}
	cfg.BatterySpec = spec
	cfg.BatteryCapacityWh = units.Energy(batteryKWh * 1000)

	// Forecaster.
	switch forecaster {
	case "perfect":
		cfg.Forecaster = forecast.Perfect{}
	case "persistence":
		cfg.Forecaster = forecast.Persistence{}
	case "ma":
		cfg.Forecaster = forecast.MovingAverage{}
	case "ewma":
		cfg.Forecaster = forecast.EWMA{}
	default:
		return core.Config{}, fmt.Errorf("unknown forecaster %q", forecaster)
	}

	// Policy.
	cfg.Policy, err = scenario.PolicyFor(policyName, fraction, solver, 0, 0)
	if err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// TestBuildConfigMatchesLegacy pins the scenario-compiled flag path to the
// hand-built config it replaced: for every flag combination the two must be
// deeply equal (the legacy config after ApplyDefaults, which core.Run
// applied to it), and a bad flag value must fail both.
func TestBuildConfigMatchesLegacy(t *testing.T) {
	base := runFlags{policy: "greenmatch", fraction: 1, solver: "flow", scale: 0.25, profile: "sunny",
		source: "solar", chemistry: "lithium-ion", forecaster: "perfect", seed: 1}
	var cases []runFlags
	add := func(edit func(f *runFlags)) {
		f := base
		edit(&f)
		cases = append(cases, f)
	}
	for _, sc := range []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.3, 0.5, 0.75, 1, 1.5} {
		add(func(f *runFlags) { f.scale = sc })
	}
	for _, src := range []string{"wind", "hybrid"} {
		for _, sc := range []float64{0.05, 0.25, 1} {
			add(func(f *runFlags) { f.source, f.scale = src, sc })
		}
	}
	for _, chem := range []string{"lithium-ion", "lead-acid"} {
		for _, kwh := range []float64{0, 5, 40} {
			add(func(f *runFlags) { f.chemistry, f.batteryKWh = chem, kwh })
		}
	}
	for _, fc := range []string{"perfect", "persistence", "ma", "ewma"} {
		add(func(f *runFlags) { f.forecaster = fc })
	}
	for _, pol := range []string{"baseline", "spindown", "defer", "mixed", "edf", "kchoices", "cucumber"} {
		add(func(f *runFlags) { f.policy, f.fraction = pol, 0.5 })
	}
	add(func(f *runFlags) { f.solver = "greedy" })
	add(func(f *runFlags) { f.profile, f.seed = "winter", 7 })
	add(func(f *runFlags) { f.nodes = 12 })
	add(func(f *runFlags) { f.area = 80 })
	add(func(f *runFlags) { f.nodes, f.area, f.scale, f.source = 40, 300, 0.1, "hybrid" })
	add(func(f *runFlags) { f.mtbf = 500 })
	add(func(f *runFlags) { f.mtbf, f.scale, f.batteryKWh = 200, 0.5, 20 })

	for _, c := range cases {
		for _, series := range []bool{false, true} {
			name := fmt.Sprintf("%+v/series=%v", c, series)
			got, err := buildConfig(c, series)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := legacyBuildConfig(c.policy, c.fraction, c.solver, c.scale, c.nodes, c.area,
				c.profile, c.source, c.batteryKWh, c.chemistry, c.forecaster, c.seed, series)
			if err != nil {
				t.Fatalf("%s: legacy: %v", name, err)
			}
			if c.mtbf > 0 {
				want.Faults.CrashMTBFHours = c.mtbf
			}
			if !reflect.DeepEqual(got, want.ApplyDefaults()) {
				t.Errorf("%s: compiled config differs from the legacy build", name)
			}
		}
	}
	if len(cases) < 40 {
		t.Fatalf("only %d cases", len(cases))
	}

	// Error parity: every bad flag value of TestBuildConfigErrors fails both.
	for _, bad := range []func(f *runFlags){
		func(f *runFlags) { f.policy = "magic" },
		func(f *runFlags) { f.source = "coal" },
		func(f *runFlags) { f.chemistry = "potato" },
		func(f *runFlags) { f.forecaster = "astrology" },
	} {
		c := base
		bad(&c)
		_, err := buildConfig(c, false)
		_, lerr := legacyBuildConfig(c.policy, c.fraction, c.solver, c.scale, c.nodes, c.area,
			c.profile, c.source, c.batteryKWh, c.chemistry, c.forecaster, c.seed, false)
		if err == nil || lerr == nil {
			t.Errorf("%+v: want both builders to fail, got %v and legacy %v", c, err, lerr)
		}
	}
}

// TestBuildConfigRejectsBadScale: the legacy builder ran -scale 0 as an
// empty one-slot week, and Scaled reads a non-positive factor as the
// identity, so a scale that is not a positive finite number is refused.
func TestBuildConfigRejectsBadScale(t *testing.T) {
	for _, sc := range []float64{0, -0.5, math.NaN(), math.Inf(1)} {
		f := runFlags{policy: "greenmatch", solver: "flow", scale: sc, profile: "sunny",
			source: "solar", chemistry: "lithium-ion", forecaster: "perfect", seed: 1}
		if _, err := buildConfig(f, false); err == nil {
			t.Errorf("scale %v should be rejected", sc)
		}
	}
}

// TestBadScaleExitsTwo drives the built command: a bad -scale is a usage
// error (exit 2) reported before anything is simulated.
func TestBadScaleExitsTwo(t *testing.T) {
	bin := buildCommand(t)
	for _, sc := range []string{"0", "-1"} {
		out, err := exec.Command(bin, "-scale", sc).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-scale %s: got %v, want exit status 2\n%s", sc, err, out)
		}
		if !strings.Contains(string(out), "-scale must be positive") {
			t.Errorf("-scale %s: message missing:\n%s", sc, out)
		}
	}
}

// buildCommand builds greenmatch into a temporary directory, skipping the
// test under -short.
func buildCommand(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the command")
	}
	bin := filepath.Join(t.TempDir(), "greenmatch")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSaveScenarioRoundTrip: -save-scenario writes the embedded reference
// scaled by -scale, so the file loads back equal to it, and a bad scale
// writes nothing.
func TestSaveScenarioRoundTrip(t *testing.T) {
	ref, err := scenarios.Load("reference")
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{0.1, 0.25, 1} {
		path := filepath.Join(t.TempDir(), "run.json")
		if err := saveScenario(path, scale); err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		got, err := scenario.Load(path)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		if want := ref.Scaled(scale); !reflect.DeepEqual(got, want) {
			t.Errorf("scale %g: saved %+v, want %+v", scale, got, want)
		}
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := saveScenario(path, 0); err == nil {
		t.Error("scale 0 should be rejected")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a rejected scale left a file behind: %v", err)
	}
}

// TestSavedScenarioRuns drives the built command: the template written at
// the default -scale of 0.25 is the quarter-scale reference (750 objects)
// and runs through -scenario.
func TestSavedScenarioRuns(t *testing.T) {
	bin := buildCommand(t)
	path := filepath.Join(t.TempDir(), "run.json")
	if out, err := exec.Command(bin, "-save-scenario", path).CombinedOutput(); err != nil {
		t.Fatalf("-save-scenario: %v\n%s", err, out)
	}
	sc, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Objects != 750 || sc.Nodes != 8 {
		t.Errorf("default template has %d nodes and %d objects, want 8 and 750", sc.Nodes, sc.Objects)
	}
	out, err := exec.Command(bin, "-scenario", path).CombinedOutput()
	if err != nil {
		t.Fatalf("-scenario: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "jobs completed") {
		t.Errorf("report missing from the -scenario run:\n%s", out)
	}
}

func TestBuildConfigRunsEndToEnd(t *testing.T) {
	cfg := testConfig(t, "greenmatch", "solar", "lithium-ion", "perfect")
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report := buildReport(res)
	var buf bytes.Buffer
	if err := report.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"brown energy (kWh)", "green utilization", "jobs completed", "read latency p99 (ms)"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSeries(t *testing.T) {
	cfg := testConfig(t, "baseline", "solar", "lithium-ion", "perfect")
	cfg.RecordSeries = true
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/series.csv"
	if err := writeSeries(res, path); err != nil {
		t.Fatal(err)
	}
	// Missing series must error, not write an empty file.
	res.Series = nil
	if err := writeSeries(res, path); err == nil {
		t.Error("nil series should error")
	}
}

func TestWriteSeriesSurfacesWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available on this platform")
	}
	cfg := testConfig(t, "baseline", "solar", "lithium-ion", "perfect")
	cfg.RecordSeries = true
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// /dev/full accepts the open and fails every write with ENOSPC. The
	// failure may surface in WriteCSV or only at the final flush-on-close;
	// either way writeSeries must report it — a silently truncated series
	// file poisons every downstream plot.
	if err := writeSeries(res, "/dev/full"); err == nil {
		t.Error("writeSeries to a full device should report the write or close error")
	}
}
