package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lastLine decodes the closing JSON line of a run's output.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line
}

// TestSmoke runs every workload at its minimal size: one run, session or
// recovery per pass. Every workload runs untraced; the traced pass with
// its layer probe runs on every workload, or with -short on serve-replay
// alone.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seconds", "0", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	line := lastLine(t, stdout.String())
	if !line.Correct || line.Failed != 0 || line.Attempted < len(workloads) {
		t.Fatalf("untraced: %+v\n%s", line, stdout.String())
	}
	for _, w := range workloads {
		for _, d := range e2eDefs {
			m, ok := line.Metrics[w.name+"/"+d.name]
			if !ok || m.Unit != d.unit || m.Value <= 0 {
				t.Errorf("%s: %s = %+v", w.name, d.name, m)
			}
		}
	}

	traced := "serve-replay"
	if !testing.Short() {
		traced = ""
		for _, w := range workloads {
			traced += "," + w.name
		}
		traced = traced[1:]
	}
	for _, name := range strings.Split(traced, ",") {
		stdout.Reset()
		if code := run([]string{"-seconds", "0", "-out", dir, "-trace", "1", "-workload", name}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s traced: exit %d\n%s\n%s", name, code, stdout.String(), stderr.String())
		}
		line := lastLine(t, stdout.String())
		if !line.Correct || len(line.Metrics) != len(layerDefs) {
			t.Fatalf("%s traced: correct %v with %d of %d layer metrics", name, line.Correct, len(line.Metrics), len(layerDefs))
		}
		for _, d := range layerDefs {
			if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: layer metric %s = %+v", name, d.name, m)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
	}
	var rf resultFile
	if err := readJSON(filepath.Join(dir, "result.json"), &rf); err != nil || len(rf.Workloads) != 1 {
		t.Fatalf("result.json: %v, %d workloads", err, len(rf.Workloads))
	}
}

// benchmarkJSON holds the fields of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// The definition file and the program must name the same workloads and
// metrics, with the same units and directions.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	var b benchmarkJSON
	if err := readJSON("../BENCHMARK.json", &b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "bash bench/run.sh" || strings.Join(b.Paths, " ") != "bench" ||
		b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("command %q, paths %q, run_seconds %d", b.Command, b.Paths, b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(e2eDefs) || len(b.PerLayer) != len(layerDefs) {
		t.Fatalf("%d e2e and %d layer metrics in BENCHMARK.json, %d and %d here",
			len(b.EndToEnd), len(b.PerLayer), len(e2eDefs), len(layerDefs))
	}
	for i, d := range e2eDefs {
		m := b.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, program has %+v", i, m, d)
		}
	}
	for i, d := range layerDefs {
		if m := b.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, program has %+v", i, m, d)
		}
	}
}

func writeResult(t *testing.T, dir, name string, e2e map[string]metric, layers map[string]metric) string {
	t.Helper()
	path := filepath.Join(dir, name)
	blob, err := json.Marshal(resultFile{Workloads: []*wlResult{{Workload: "w", E2E: e2e, Layers: layers}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "bench.json")
	def := `{"end_to_end": [{"name": "op_p50_ms", "better": "lower", "bound": 0.1},
		{"name": "slots_per_s", "better": "higher", "bound": 0.1}]}`
	if err := os.WriteFile(bounds, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeResult(t, dir, "a.json", map[string]metric{
		"op_p50_ms": {Value: 10, Spread: 0.02}, "slots_per_s": {Value: 100, Spread: 0.02},
	}, map[string]metric{"match.cold_solves": {Value: 175}})
	for _, c := range []struct {
		name   string
		e2e    map[string]metric
		layers map[string]metric
		code   int
		label  string
	}{
		{"within bounds", map[string]metric{"op_p50_ms": {Value: 10.5}, "slots_per_s": {Value: 95}}, nil, 0, "ok"},
		{"slower", map[string]metric{"op_p50_ms": {Value: 11.5}, "slots_per_s": {Value: 100}}, nil, 1, "WORSE"},
		{"lower rate", map[string]metric{"op_p50_ms": {Value: 10}, "slots_per_s": {Value: 85}}, nil, 1, "WORSE"},
		{"faster", map[string]metric{"op_p50_ms": {Value: 8}, "slots_per_s": {Value: 100}}, nil, 0, "better"},
		{"noisy", map[string]metric{"op_p50_ms": {Value: 13, Spread: 0.2}, "slots_per_s": {Value: 100}}, nil, 0, "unresolved"},
		{"count moved", map[string]metric{"op_p50_ms": {Value: 10}, "slots_per_s": {Value: 100}},
			map[string]metric{"match.cold_solves": {Value: 174}}, 1, "DIFFERS"},
	} {
		b := writeResult(t, dir, "b.json", c.e2e, c.layers)
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", "-bounds", bounds, base, b}, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.label) {
			t.Errorf("%s: exit %d, want %d with %q\n%s%s", c.name, code, c.code, c.label, stdout.String(), stderr.String())
		}
	}
}
