package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkFFDPlace200Jobs         	   18405	     62847 ns/op	   29504 B/op	      38 allocs/op
BenchmarkFFDPlace200Jobs         	   19021	     60013 ns/op	   29504 B/op	      38 allocs/op
BenchmarkFFDPlace200Jobs         	   18112	     64000 ns/op	   29504 B/op	      38 allocs/op
BenchmarkSweepThroughput/j1-8    	       4	 250075085 ns/op	        31.99 runs/s	142911928 B/op	 1494536 allocs/op
BenchmarkSweepThroughput/j1-8    	       4	 248000000 ns/op	        32.25 runs/s	142911900 B/op	 1494530 allocs/op
BenchmarkSweepThroughput/j1-8    	       4	 260000000 ns/op	        30.77 runs/s	142912000 B/op	 1494540 allocs/op
PASS
pkg: repro/internal/core
BenchmarkCoveredOnCacheHit       	12875829	        93.17 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/core	1.5s
`

func TestParseBenchOutput(t *testing.T) {
	benches, cpu := parseBenchOutput(sampleOutput)
	if cpu != "AMD EPYC 7B13" {
		t.Errorf("cpu = %q", cpu)
	}
	if len(benches) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(benches), benches)
	}
	ffd := benches[0]
	if ffd.Pkg != "repro" || ffd.Name != "BenchmarkFFDPlace200Jobs" {
		t.Errorf("first bench = %s.%s", ffd.Pkg, ffd.Name)
	}
	if ffd.Runs != 3 {
		t.Errorf("FFD runs = %d, want 3", ffd.Runs)
	}
	if ffd.NsPerOp != 62847 { // median of {60013, 62847, 64000}
		t.Errorf("FFD median ns/op = %v, want 62847", ffd.NsPerOp)
	}
	if ffd.AllocsPerOp != 38 {
		t.Errorf("FFD allocs/op = %v", ffd.AllocsPerOp)
	}

	sweep := benches[1]
	if sweep.Name != "BenchmarkSweepThroughput/j1" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", sweep.Name)
	}
	if got := sweep.Metrics["runs/s"]; got != 31.99 {
		t.Errorf("sweep runs/s median = %v, want 31.99", got)
	}
	if sweep.NsPerOp != 250075085 {
		t.Errorf("sweep median ns/op = %v", sweep.NsPerOp)
	}

	hit := benches[2]
	if hit.Pkg != "repro/internal/core" || hit.NsPerOp != 93.17 || hit.AllocsPerOp != 0 {
		t.Errorf("cache-hit bench parsed as %+v", hit)
	}
}

func TestMedianEvenCount(t *testing.T) {
	got := median([]float64{4, 1, 3, 2}, func(v float64) float64 { return v })
	if got != 2.5 {
		t.Errorf("median of {1,2,3,4} = %v, want 2.5", got)
	}
	if m := median(nil, func(v float64) float64 { return v }); m != 0 {
		t.Errorf("median of empty = %v, want 0", m)
	}
}

func TestLatestSnapshotAndDelta(t *testing.T) {
	dir := t.TempDir()
	if s, _, err := latestSnapshot(dir); err != nil || s != nil {
		t.Fatalf("empty dir: snapshot=%v err=%v", s, err)
	}
	prev := Snapshot{
		Stamp: "2026-08-01T00:00:00Z",
		Benchmarks: []Bench{
			{Pkg: "repro", Name: "BenchmarkSweepThroughput/j1", NsPerOp: 250e6, AllocsPerOp: 1494536, Metrics: map[string]float64{"result": 42}},
			{Pkg: "repro", Name: "BenchmarkGone", NsPerOp: 10},
		},
	}
	data, _ := json.Marshal(prev)
	if err := os.WriteFile(filepath.Join(dir, "BENCH_20260801-000000.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A lexicographically earlier file must not shadow the newest one.
	if err := os.WriteFile(filepath.Join(dir, "BENCH_20260701-000000.json"), []byte(`{"stamp":"old"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, path, err := latestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stamp != prev.Stamp {
		t.Errorf("loaded %q from %s, want newest", got.Stamp, path)
	}

	cur := &Snapshot{
		Benchmarks: []Bench{
			{Pkg: "repro", Name: "BenchmarkSweepThroughput/j1", NsPerOp: 200e6, AllocsPerOp: 500, Metrics: map[string]float64{"result": 43}},
			{Pkg: "repro", Name: "BenchmarkNew", NsPerOp: 5},
		},
	}
	var b strings.Builder
	if !writeDelta(&b, got, cur) {
		t.Error("writeDelta did not report the result-metric drift")
	}
	out := b.String()
	for _, want := range []string{"-20.0%", "BenchmarkNew", "new", "BenchmarkGone", "gone", "RESULT METRIC DRIFT", "result 42 -> 43"} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table missing %q:\n%s", want, out)
		}
	}

	// Same results, different timing: no drift, gating stays quiet.
	same := &Snapshot{Benchmarks: []Bench{
		{Pkg: "repro", Name: "BenchmarkSweepThroughput/j1", NsPerOp: 100e6, AllocsPerOp: 7, Metrics: map[string]float64{"result": 42}},
	}}
	b.Reset()
	if writeDelta(&b, got, same) {
		t.Errorf("timing-only delta reported drift:\n%s", b.String())
	}

	// A benchmark the previous snapshot lacks is new, never drift, even
	// when it reports metrics of its own.
	added := &Snapshot{Benchmarks: []Bench{
		same.Benchmarks[0],
		{Pkg: "repro", Name: "BenchmarkObservedSlotThroughput/week", NsPerOp: 8e6, Metrics: map[string]float64{"slots/s": 23000, "result": 1}},
	}}
	b.Reset()
	if writeDelta(&b, got, added) {
		t.Errorf("a new benchmark reported drift:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "BenchmarkObservedSlotThroughput/week") {
		t.Errorf("delta table omits the new benchmark:\n%s", b.String())
	}
}

func TestPct(t *testing.T) {
	for _, tc := range []struct {
		old, new float64
		want     string
	}{{100, 85, "-15.0%"}, {100, 115, "+15.0%"}, {0, 0, "0%"}, {0, 5, "+inf%"}} {
		if got := pct(tc.old, tc.new); got != tc.want {
			t.Errorf("pct(%v, %v) = %q, want %q", tc.old, tc.new, got, tc.want)
		}
	}
}
