// Command bench is the repository's end-to-end benchmark. It runs
// GreenMatch the two ways it is used, as batch simulations and as the live
// gmserve service, on five workloads, checks every answer against a
// reference, and prints each end-to-end metric by name with its unit and
// sample count. With -trace 1 it runs each workload again with layer
// decorators attached, probes the layers the workload does not reach, and
// prints the per-layer ledger. See README.md.
//
// Run from the repository root:
//
//	bash bench/run.sh [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	bash bench/run.sh -compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 0 when every
// operation succeeded and every check passed, 1 otherwise, 2 on a usage
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// traceFlag takes 0 or 1 (or true or false).
type traceFlag bool

func (t *traceFlag) String() string {
	if t != nil && bool(*t) {
		return "1"
	}
	return "0"
}

func (t *traceFlag) Set(s string) error {
	b, err := strconv.ParseBool(s)
	*t = traceFlag(b)
	return err
}

// options are the command line of one benchmark invocation.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
}

// wlResult is one workload's entry in result.json.
type wlResult struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailFrac  float64            `json:"fail_frac"`
	Failures  []string           `json:"failures,omitempty"`
	E2E       map[string]metric  `json:"e2e"`
	Tail      metric             `json:"op_tail"`
	Wait      *metric            `json:"op_wait_p50,omitempty"`
	Layers    map[string]metric  `json:"layers,omitempty"`
	Overhead  map[string]float64 `json:"tracing_overhead,omitempty"`
	ledger    []ledgerRow
}

type resultFile struct {
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Trace      bool        `json:"trace"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Workloads  []*wlResult `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var all []string
	for _, w := range workloads {
		all = append(all, w.name)
	}
	names := fs.String("workload", strings.Join(all, ","), "comma-separated workloads to run")
	seed := fs.Int64("seed", 1, "seed of the scenario and the load generator")
	seconds := fs.Float64("seconds", 20, "measuring time per workload, split between the passes with -trace 1; 0 runs a single run, session or recovery per pass")
	var trace traceFlag
	fs.Var(&trace, "trace", "1 runs each workload a second time traced and prints the per-layer ledger")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for result.json and the span files")
	compare := fs.Bool("compare", false, "compare two result files, given as arguments, against the bounds in -bounds")
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), *bounds, stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds < 0 {
		fmt.Fprintf(stderr, "usage: bench [flags]; unexpected arguments %q\n", fs.Args())
		return 2
	}
	var chosen []*workloadDef
	for _, n := range strings.Split(*names, ",") {
		w := workloadByName(strings.TrimSpace(n))
		if w == nil {
			fmt.Fprintf(stderr, "unknown workload %q; have %s\n", n, strings.Join(all, ", "))
			return 2
		}
		chosen = append(chosen, w)
	}
	o := options{seed: *seed, seconds: *seconds, trace: bool(trace), out: *out}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	rf := resultFile{Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	for _, w := range chosen {
		res := measure(w, o, stderr)
		rf.Workloads = append(rf.Workloads, res)
		report(stdout, w, o, res)
	}
	blob, err := json.MarshalIndent(rf, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.out, "result.json"), append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "writing result.json:", err)
		return 1
	}
	line := closingLine(rf.Workloads, o.trace)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// measure runs one workload untraced and, with tracing, again traced
// followed by the layer probe.
func measure(w *workloadDef, o options, stderr io.Writer) *wlResult {
	res := &wlResult{Workload: w.name}
	var f failures
	tmp := filepath.Join(o.out, "state-"+w.name)
	defer os.RemoveAll(tmp)
	// With tracing the untraced and the traced pass share the time.
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	pass := func(rec *recorder) (*ran, *env, error) {
		if err := os.RemoveAll(tmp); err != nil {
			return nil, nil, err
		}
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, nil, err
		}
		e := &env{seed: o.seed, budget: budget, tmp: tmp, rec: rec}
		r, err := w.run(e, w)
		return r, e, err
	}
	r, e, err := pass(nil)
	if err == nil {
		res.E2E, res.Tail = e2e(r), tail(r)
		if len(r.wait) > 0 {
			m := finite(summarize(r.wait, "ms", median))
			res.Wait = &m
		}
	}
	f = merge(f, e, err)
	if o.trace && err == nil {
		var tr *ran
		tr, e, err = pass(newRecorder())
		var c counts
		if err == nil {
			c, err = probe(e, w, tr)
		}
		if err == nil {
			spans := e.rec.snapshot()
			res.Layers = layerMetrics(spans, c, tr.lag)
			res.ledger = ledger(spans)
			res.Overhead = map[string]float64{}
			for k, v := range e2e(tr) {
				res.Overhead[k] = v.Value - res.E2E[k].Value
			}
			err = writeJSONL(filepath.Join(o.out, "trace-"+w.name+".jsonl"), spans)
		}
		f = merge(f, e, err)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
	}
	res.Attempted, res.Failed, res.Failures = f.attempted, f.failed, f.msgs
	if res.Attempted > 0 {
		res.FailFrac = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// merge adds a pass's operation counts to f; a pass that stopped on an
// error counts as one more failed operation.
func merge(f failures, e *env, err error) failures {
	if e != nil {
		f.attempted += e.f.attempted
		f.failed += e.f.failed
		f.msgs = append(f.msgs, e.f.msgs...)
	}
	if err != nil {
		f.attempted++
		f.failed++
		f.msgs = append(f.msgs, err.Error())
	}
	return f
}

// report prints one workload's metrics for a reader.
func report(w io.Writer, wd *workloadDef, o options, res *wlResult) {
	fmt.Fprintf(w, "== %s  seed %d, %g s, GOMAXPROCS %d\n", wd.name, o.seed, o.seconds, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "   %s\n", wd.why)
	for _, d := range e2eDefs {
		m, ok := res.E2E[d.name]
		if !ok {
			continue
		}
		note := fmt.Sprintf("n=%d", m.N)
		if m.Pct > 0 {
			note = fmt.Sprintf("p%g, n=%d, %d beyond", m.Pct, m.N, beyond(m.N, m.Pct))
		}
		fmt.Fprintf(w, "   %-14s %14.4f %-8s %s\n", d.name, m.Value, d.unit, note)
	}
	if m := res.Wait; m != nil {
		fmt.Fprintf(w, "   %-14s %14.4f %-8s n=%d, from the due time (not gated)\n", "op_wait_p50_ms", m.Value, m.Unit, m.N)
	}
	if t := res.Tail; t.N > 0 {
		fmt.Fprintf(w, "   %-14s %14.4f %-8s p%g, n=%d, %d beyond (not gated)\n", "op_tail_ms", t.Value, t.Unit, t.Pct, t.N, beyond(t.N, t.Pct))
	}
	fmt.Fprintf(w, "   attempted %d, failed %d, fail_frac %g\n", res.Attempted, res.Failed, res.FailFrac)
	for _, msg := range res.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", msg)
	}
	if res.Layers == nil {
		return
	}
	fmt.Fprintf(w, "   per-layer ledger (traced pass):\n%s", formatLedger(res.ledger))
	for _, d := range layerDefs {
		m := res.Layers[d.name]
		fmt.Fprintf(w, "   %-28s %14.4f %-8s n=%d\n", d.name, m.Value, d.unit, m.N)
	}
	fmt.Fprintf(w, "   tracing overhead (traced minus untraced):\n")
	for _, d := range e2eDefs {
		fmt.Fprintf(w, "   %-14s %+14.4f %s\n", d.name, res.Overhead[d.name], d.unit)
	}
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// closingLine folds the workloads into the closing JSON line: the
// end-to-end metrics, or with tracing the per-layer ones. With several
// workloads each name is prefixed by its workload.
func closingLine(results []*wlResult, traced bool) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]lineMetric{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		ms := r.E2E
		if traced {
			ms = r.Layers
		}
		for name, m := range ms {
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			line.Metrics[name] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return line
}
