// Command gmexp runs experiments from the GreenMatch evaluation registry
// (E1..E22; see DESIGN.md §3) and prints each figure's series / table's
// rows, in text or CSV.
//
// Examples:
//
//	gmexp -list
//	gmexp -id E3 -scale 0.5
//	gmexp -all -scale 0.2 -csv > results.csv
//	gmexp -all -scale 0.25 -audit -audit-trace trace.jsonl   # conservation gate
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/audit"
	"repro/internal/expt"
	"repro/internal/report"
	"repro/internal/scenario"
)

var (
	id         = flag.String("id", "", "experiment ID to run (E1..E22)")
	all        = flag.Bool("all", false, "run every experiment")
	list       = flag.Bool("list", false, "list the registry and exit")
	scale      = flag.Float64("scale", 0.25, "scenario scale (1.0 = paper scale; smaller is faster)")
	seed       = flag.Int64("seed", 1, "random seed")
	csv        = flag.Bool("csv", false, "emit CSV instead of text tables")
	html       = flag.String("html", "", "also write a self-contained HTML report (tables + SVG charts) to this file")
	jobs       = flag.Int("j", 0, "sweep workers per experiment: 0 = one per core, 1 = sequential")
	doAudit    = flag.Bool("audit", false, "attach the energy-conservation auditor to every run; violations fail the experiment")
	auditTrace = flag.String("audit-trace", "", "write every run's per-slot audit trace as JSONL to this file")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (inspect with `go tool pprof`)")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file after the experiments finish")
)

// main only handles profiling setup/teardown around run: profiles must be
// flushed on every exit path, and os.Exit would skip defers.
func main() {
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmexp:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gmexp:", err)
			os.Exit(1)
		}
	}
	code := run()
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmexp:", err)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		err = pprof.WriteHeapProfile(f)
		cerr := f.Close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmexp:", err)
			os.Exit(1)
		}
	}
	os.Exit(code)
}

func run() (code int) {
	if *list {
		for _, e := range expt.All() {
			fmt.Printf("%-4s %-7s %s\n", e.ID, e.Kind, e.Title)
		}
		return 0
	}

	var toRun []expt.Experiment
	switch {
	case *all:
		toRun = expt.All()
	case *id != "":
		e, ok := expt.ByID(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "gmexp: unknown experiment %q (use -list)\n", *id)
			return 2
		}
		toRun = []expt.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "gmexp: pass -id E<N>, -all, or -list")
		return 2
	}

	if err := scenario.CheckScale("-scale", *scale); err != nil {
		fmt.Fprintln(os.Stderr, "gmexp:", err)
		return 2
	}
	p := expt.Params{Scale: *scale, Seed: *seed, Workers: *jobs, Audit: *doAudit}
	if *auditTrace != "" {
		f, err := os.Create(*auditTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmexp:", err)
			return 1
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		p.AuditSink = audit.NewJSONL(bw) // goroutine-safe: shared by sweep workers
		// Flush and close on every exit path — failed experiments included —
		// so however far the suite got, the trace on disk is complete JSONL.
		defer func() {
			err := p.CloseSink()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "gmexp:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}
	// Experiment failures don't fail fast: the rest of the suite still
	// runs and prints, the failures are aggregated into one table at the
	// end, and the exit status reports them. A 21-experiment audit gate
	// should name every violator, not just the first.
	type failure struct {
		id  string
		err error
	}
	var failures []failure
	var sections []report.Section
	for _, e := range toRun {
		fmt.Printf("== %s (%s): %s ==\n", e.ID, e.Kind, e.Title)
		tables, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gmexp: %s: %v\n", e.ID, err)
			failures = append(failures, failure{id: e.ID, err: err})
			if len(tables) == 0 {
				continue // nothing partial to print
			}
		}
		for _, t := range tables {
			var werr error
			if *csv {
				werr = t.WriteCSV(os.Stdout)
			} else {
				werr = t.WriteText(os.Stdout)
			}
			if werr != nil {
				fmt.Fprintf(os.Stderr, "gmexp: %s: %v\n", e.ID, werr)
				failures = append(failures, failure{id: e.ID, err: werr})
				break
			}
			fmt.Println()
		}
		if *html != "" {
			sec := report.Section{
				Heading: fmt.Sprintf("%s (%s): %s", e.ID, e.Kind, e.Title),
				Tables:  tables,
			}
			if e.Kind == "figure" && len(tables) > 0 {
				sec.Chart = report.ChartFromTable(tables[0], e.ID)
			}
			sections = append(sections, sec)
		}
	}
	if *html != "" {
		f, err := os.Create(*html)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmexp:", err)
			return 1
		}
		title := fmt.Sprintf("GreenMatch evaluation — scale %.2g, seed %d (%s)",
			*scale, *seed, strings.TrimSuffix(func() string {
				var ids []string
				for _, e := range toRun {
					ids = append(ids, e.ID)
				}
				return strings.Join(ids, ", ")
			}(), ", "))
		err = report.Render(f, title, sections)
		cerr := f.Close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmexp:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "HTML report written to %s\n", *html)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\ngmexp: %d of %d experiments failed:\n", len(failures), len(toRun))
		for _, f := range failures {
			// The runner's aggregated errors are multi-line; indent them
			// under their experiment so the table stays scannable.
			msg := strings.ReplaceAll(f.err.Error(), "\n", "\n    ")
			fmt.Fprintf(os.Stderr, "  %-4s %s\n", f.id, msg)
		}
		return 1
	}
	if *doAudit {
		fmt.Fprintf(os.Stderr, "gmexp: audit passed: every run conserved energy within tolerance\n")
	}
	return 0
}
