package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"
)

// TestFactStore pins the store's semantics: dedup of identical triples,
// a dropped nil object, and per-(analyzer, kind) lookup.
func TestFactStore(t *testing.T) {
	s := NewFactStore()
	pkg := types.NewPackage("example/p", "p")
	objA := types.NewVar(token.NoPos, pkg, "A", types.Typ[types.Int])
	objB := types.NewVar(token.NoPos, pkg, "B", types.Typ[types.Int])

	s.Export(objA, Fact{Analyzer: "x", Name: "mark", Detail: "one"})
	s.Export(objA, Fact{Analyzer: "x", Name: "mark", Detail: "one"}) // duplicate: collapses
	s.Export(objA, Fact{Analyzer: "x", Name: "mark", Detail: "two"})
	s.Export(objB, Fact{Analyzer: "y", Name: "other", Detail: ""})
	s.Export(nil, Fact{Analyzer: "x", Name: "mark", Detail: "ignored"})

	if f, ok := s.Get(objA, "x", "mark"); !ok || f.Detail != "one" {
		t.Errorf("Get(objA) = %+v, %v; want the first exported fact", f, ok)
	}
	if _, ok := s.Get(objA, "x", "absent"); ok {
		t.Error("Get with an unknown kind should miss")
	}
	if _, ok := s.Get(nil, "x", "mark"); ok {
		t.Error("Get(nil) should miss")
	}
	if len(s.facts) != 2 || len(s.facts[objA]) != 2 || len(s.facts[objB]) != 1 {
		t.Fatalf("facts = %v, want 2 on A and 1 on B (duplicate collapsed, nil dropped)", s.facts)
	}
}

// TestPassFactsNilStore proves a Pass built without a store ignores
// exports and misses imports instead of panicking.
func TestPassFactsNilStore(t *testing.T) {
	pkg := types.NewPackage("example/p", "p")
	obj := types.NewVar(token.NoPos, pkg, "A", types.Typ[types.Int])
	p := &Pass{Analyzer: SnapState}
	p.ExportObjectFact(obj, "restore", "T")
	if _, ok := p.ImportObjectFact(obj, "restore"); ok {
		t.Error("ImportObjectFact on a nil store should miss")
	}
}

// TestJSONReportShape pins the machine-readable envelope: analyzer names in
// suite order, positioned diagnostics, soft errors, and a clean run
// serializing as [] rather than null.
func TestJSONReportShape(t *testing.T) {
	diags := []Diagnostic{{
		Analyzer: "snapstate",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "field T.b is not read",
	}}
	soft := []error{errString("x.go:1:1: undefined: y")}
	rep := NewJSONReport([]*Analyzer{SnapState, HotAlloc}, diags, soft)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back JSONReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v\n%s", err, buf.String())
	}
	if len(back.Analyzers) != 2 || back.Analyzers[0] != "snapstate" || back.Analyzers[1] != "hotalloc" {
		t.Errorf("analyzers = %v, want [snapstate hotalloc]", back.Analyzers)
	}
	if len(back.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %v, want 1", back.Diagnostics)
	}
	d := back.Diagnostics[0]
	if d.Analyzer != "snapstate" || d.File != "x.go" || d.Line != 3 || d.Column != 7 {
		t.Errorf("diagnostic = %+v, want analyzer/file/line/column preserved", d)
	}
	if len(back.TypeErrors) != 1 || !strings.Contains(back.TypeErrors[0], "undefined") {
		t.Errorf("type errors = %v, want the soft error", back.TypeErrors)
	}

	buf.Reset()
	if err := WriteJSON(&buf, NewJSONReport(nil, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"diagnostics": []`) {
		t.Errorf("empty report should serialize diagnostics as []:\n%s", buf.String())
	}
}

// errString is a trivial error for report tests.
type errString string

func (e errString) Error() string { return string(e) }

// TestLintModuleNoModule covers the driver's loader-construction failure.
func TestLintModuleNoModule(t *testing.T) {
	if _, _, err := LintModule(t.TempDir(), []string{"./..."}, Analyzers()); err == nil {
		t.Error("LintModule outside any module should fail")
	}
}

// TestLintModuleSoftErrors proves analysis is best-effort under type
// errors: the driver surfaces them as soft errors rather than aborting.
func TestLintModuleSoftErrors(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir+"/go.mod", "module tmp\n\ngo 1.22\n")
	writeFile(t, dir+"/a.go", "package a\n\nfunc f() { undefined() }\n")
	writeFile(t, dir+"/empty.txt", "no go files here\n")
	diags, soft, err := LintModule(dir, nil, Analyzers())
	if err != nil {
		t.Fatalf("LintModule: %v", err)
	}
	if len(soft) == 0 {
		t.Error("want the undefined-identifier type error as a soft error")
	}
	if len(diags) != 0 {
		t.Errorf("unexpected diagnostics: %v", diags)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBareEphemeralMark runs snapstate directly over the snapstatebad
// fixture: a reasonless //gm:ephemeral is itself a finding and does not
// excuse the field. Checked directly because the diagnostic lands on the
// mark's own line, where a want comment would become part of the reason.
func TestBareEphemeralMark(t *testing.T) {
	pkg, err := NewFixtureLoader(srcRoot).Load("snapstatebad")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, []*Analyzer{SnapState})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want exactly the malformed-mark finding", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "malformed //gm:ephemeral") {
		t.Errorf("diagnostic %q, want a malformed //gm:ephemeral finding", diags[0].Message)
	}
}
