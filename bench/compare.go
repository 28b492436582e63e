package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict compares metric b against a. worse is the relative change in the
// metric's bad direction. A pair whose within-run spread exceeds the bound
// cannot be resolved; otherwise b is worse or better than a when the change
// exceeds the bound.
func verdict(a, b metric, better string, bound float64) (worse float64, label string) {
	worse = (b.Value - a.Value) / math.Abs(a.Value)
	if better == "higher" {
		worse = -worse
	}
	switch {
	case math.Max(a.Spread, b.Spread) > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "WORSE"
	case -worse > bound:
		return worse, "better"
	}
	return worse, "ok"
}

// runCompare checks result file b against result file a: every
// (workload, end-to-end metric) pair against its bound, the failure
// fraction, and the exact per-layer counts when both files hold them. It
// exits 1 when b is worse beyond a bound, fails more often, or differs in
// an exact count.
func runCompare(args []string, boundsPath string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	var def benchDef
	var a, b resultFile
	for _, x := range []struct {
		path string
		v    any
	}{{boundsPath, &def}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(x.path, x.v); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	disagree := false
	fmt.Fprintf(stdout, "%-14s %-28s %14s %14s %9s %7s %7s  %s\n",
		"workload", "metric", "a", "b", "change", "bound", "spread", "verdict")
	for _, wa := range a.Workloads {
		var wb *wlResult
		for _, w := range b.Workloads {
			if w.Workload == wa.Workload {
				wb = w
			}
		}
		if wb == nil {
			continue
		}
		for _, d := range def.EndToEnd {
			ma, okA := wa.E2E[d.Name]
			mb, okB := wb.E2E[d.Name]
			if !okA || !okB {
				continue
			}
			worse, label := verdict(ma, mb, d.Better, d.Bound)
			disagree = disagree || label == "WORSE"
			fmt.Fprintf(stdout, "%-14s %-28s %14.4f %14.4f %+8.1f%% %6.0f%% %6.1f%%  %s\n", wa.Workload, d.Name,
				ma.Value, mb.Value, 100*worse, 100*d.Bound, 100*math.Max(ma.Spread, mb.Spread), label)
		}
		if wb.FailFrac > wa.FailFrac {
			disagree = true
			fmt.Fprintf(stdout, "%-14s %-28s %14g %14g  more failures\n", wa.Workload, "fail_frac", wa.FailFrac, wb.FailFrac)
		}
		for _, d := range layerDefs {
			ma, okA := wa.Layers[d.name]
			mb, okB := wb.Layers[d.name]
			if !d.exact || !okA || !okB {
				continue
			}
			label := "same"
			if ma.Value-mb.Value != 0 { // an exact count must repeat bit for bit
				label, disagree = "DIFFERS", true
			}
			fmt.Fprintf(stdout, "%-14s %-28s %14.4f %14.4f  exact count %s\n", wa.Workload, d.name, ma.Value, mb.Value, label)
		}
	}
	if disagree {
		return 1
	}
	return 0
}
