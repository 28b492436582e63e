// Command gmlint is the GreenMatch domain-linter multichecker: it runs
// the internal/lint analyzer suite (unitsafety, determinism, floateq,
// observerhot, snapstate, applypath, durabilityerr, hotalloc, deadexport)
// over the module and exits non-zero on any finding.
//
// Usage:
//
//	go run ./cmd/gmlint ./...              # whole module (the CI gate)
//	go run ./cmd/gmlint ./internal/core    # one package
//	go run ./cmd/gmlint -only unitsafety,floateq ./...
//	go run ./cmd/gmlint -json ./...        # machine-readable report on stdout
//	go run ./cmd/gmlint -list              # analyzer catalog
//
// Suppress a finding with a trailing or preceding comment:
//
//	x := float64(p) //lint:allow unitsafety feeding a third-party API
//
// See docs/LINTING.md for the analyzer catalog and the rules' rationale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	return runTo(os.Stdout, os.Stderr, args)
}

func runTo(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("gmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzer catalog and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON report on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := all
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "gmlint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	diags, soft, err := lint.LintModule(".", fs.Args(), analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "gmlint: %v\n", err)
		return 2
	}
	if *asJSON {
		rep := lint.NewJSONReport(analyzers, diags, soft)
		if err := lint.WriteJSON(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "gmlint: writing report: %v\n", err)
			return 2
		}
	} else {
		for _, e := range soft {
			fmt.Fprintf(stderr, "gmlint: type error: %v\n", e)
		}
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 || len(soft) > 0 {
		return 1
	}
	return 0
}
