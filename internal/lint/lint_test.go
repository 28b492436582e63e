package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

const srcRoot = "testdata/src"

// runFixture is the per-analyzer test body: load the fixture package and
// report every mismatch between diagnostics and want comments.
func runFixture(t *testing.T, path string, analyzers ...*Analyzer) {
	t.Helper()
	failures, err := RunFixture(srcRoot, path, analyzers...)
	if err != nil {
		t.Fatalf("RunFixture(%s): %v", path, err)
	}
	for _, f := range failures {
		t.Error(f)
	}
}

func TestUnitSafetyFixture(t *testing.T)    { runFixture(t, "unitsafety", UnitSafety) }
func TestDeterminismFixture(t *testing.T)   { runFixture(t, "core", Determinism) }
func TestFloatEqFixture(t *testing.T)       { runFixture(t, "floateq", FloatEq) }
func TestObserverHotFixture(t *testing.T)   { runFixture(t, "observerhot", ObserverHot) }
func TestSnapStateFixture(t *testing.T)     { runFixture(t, "snapstate", SnapState) }
func TestApplyPathFixture(t *testing.T)     { runFixture(t, "applypath", ApplyPath) }
func TestDurabilityErrFixture(t *testing.T) { runFixture(t, "durabilityerr", DurabilityErr) }
func TestHotAllocFixture(t *testing.T)      { runFixture(t, "hotalloc", HotAlloc) }

// TestDeadExportFixture runs deadexport over the internal package of a
// two-package fixture tree and over the package that imports it, whose
// own exports lie outside internal/ and are never checked.
func TestDeadExportFixture(t *testing.T) {
	runFixture(t, "deadexport/internal/lib", DeadExport)
	runFixture(t, "deadexport/user", DeadExport)
}

// TestMirrorDepClean proves the dependency side of the cross-package
// fixtures is itself clean: the mirrordep/mutatordep packages carry the
// directives but no findings.
func TestMirrorDepClean(t *testing.T) {
	runFixture(t, "mirrordep", Analyzers()...)
	runFixture(t, "mutatordep", Analyzers()...)
}

// TestSinkExemption proves unitsafety skips the serialization sinks: the
// report fixture strips units with zero want comments.
func TestSinkExemption(t *testing.T) { runFixture(t, "report", UnitSafety) }

// TestDeterminismScope proves the determinism rules only apply to
// simulator-core package names: the reportgen fixture uses every
// forbidden construct with zero want comments.
func TestDeterminismScope(t *testing.T) { runFixture(t, "reportgen", Determinism) }

// TestSuppression runs the whole suite over the suppression fixture: the
// //lint:allow'd findings vanish, the rest must still be reported.
func TestSuppression(t *testing.T) { runFixture(t, "suppress", Analyzers()...) }

// TestMalformedDirective checks that a //lint:allow without a reason is
// itself a finding and does not suppress anything. Checked directly
// because the malformed diagnostic lands on the directive's own line,
// where a want comment cannot sit without becoming part of the reason.
func TestMalformedDirective(t *testing.T) {
	pkg, err := NewFixtureLoader(srcRoot).Load("malformed")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, []*Analyzer{FloatEq})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics %v, want 2 (malformed directive + unsuppressed floateq)", len(diags), diags)
	}
	var sawMalformed, sawFloatEq bool
	for _, d := range diags {
		switch d.Analyzer {
		case "gmlint":
			sawMalformed = strings.Contains(d.Message, "malformed //lint:allow")
		case "floateq":
			sawFloatEq = true
		}
	}
	if !sawMalformed || !sawFloatEq {
		t.Errorf("diagnostics %v: want one malformed-directive finding and one floateq finding", diags)
	}
}

// TestRunFixtureMismatch covers the harness's own failure paths: an
// undeclared diagnostic and an unmatched want each produce a failure.
func TestRunFixtureMismatch(t *testing.T) {
	failures, err := RunFixture(srcRoot, "mismatch", FloatEq)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 2 {
		t.Fatalf("got failures %v, want exactly 2", failures)
	}
	if !strings.Contains(failures[0], "unexpected diagnostic") {
		t.Errorf("failures[0] = %q, want an unexpected-diagnostic failure", failures[0])
	}
	if !strings.Contains(failures[1], "got none") {
		t.Errorf("failures[1] = %q, want an unmatched-want failure", failures[1])
	}
}

// TestDiagnosticString pins the file:line:col prefix format the CI gate
// greps and editors jump on.
func TestDiagnosticString(t *testing.T) {
	pkg, err := NewFixtureLoader(srcRoot).Load("mismatch")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, []*Analyzer{FloatEq})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	s := diags[0].String()
	want := filepath.Join(srcRoot, "mismatch", "mismatch.go") + ":7:8: floateq: "
	if !strings.HasPrefix(s, want) {
		t.Errorf("Diagnostic.String() = %q, want prefix %q", s, want)
	}
}

// TestAnalyzersCatalog pins the suite composition and that every analyzer
// carries the metadata gmlint -list and the docs rely on.
func TestAnalyzersCatalog(t *testing.T) {
	names := []string{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing Name, Doc, or Run", a)
		}
		names = append(names, a.Name)
	}
	want := "unitsafety,determinism,floateq,observerhot,snapstate,applypath,durabilityerr,hotalloc,deadexport"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("Analyzers() = %s, want %s", got, want)
	}
}

// TestModulePackages checks pattern expansion against the real module:
// testdata is skipped, the lint package itself is found, and explicit
// single-package patterns work.
func TestModulePackages(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.ModulePackages("./...")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range paths {
		seen[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("ModulePackages leaked testdata package %s", p)
		}
	}
	for _, want := range []string{"repro/internal/lint", "repro/internal/core", "repro/cmd/gmlint"} {
		if !seen[want] {
			t.Errorf("ModulePackages(./...) missing %s", want)
		}
	}
	one, err := loader.ModulePackages("./internal/units")
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != "repro/internal/units" {
		t.Errorf("ModulePackages(./internal/units) = %v", one)
	}
}

// TestLoaderErrors covers the loader's error paths.
func TestLoaderErrors(t *testing.T) {
	if _, err := NewLoader(t.TempDir()); err == nil {
		t.Error("NewLoader outside any module: want error, got nil")
	}
	loader := NewFixtureLoader(srcRoot)
	if _, err := loader.Load("nonexistent"); err == nil {
		t.Error("Load(nonexistent): want error, got nil")
	}
	if _, err := loader.ModulePackages("./..."); err == nil {
		t.Error("ModulePackages on a fixture loader: want error, got nil")
	}
}

// TestLintModuleErrors covers the driver's error paths.
func TestLintModuleErrors(t *testing.T) {
	if _, _, err := LintModule(t.TempDir(), nil, Analyzers()); err == nil {
		t.Error("LintModule outside any module: want error, got nil")
	}
	if _, _, err := LintModule(".", []string{"./testdata"}, Analyzers()); err == nil {
		t.Error("LintModule on a no-package pattern: want error, got nil")
	}
}
