// Package lint implements gmlint, the GreenMatch domain-linter suite: a
// small set of static analyzers that enforce, at compile time, the
// invariants the simulator otherwise only checks at runtime — typed
// watt/watt-hour accounting (unitsafety), byte-reproducible runs
// (determinism), epsilon-disciplined float comparison (floateq), the
// zero-cost-when-disabled observability contract (observerhot), and the
// crash-recovery contracts of the live service (snapstate, applypath,
// durabilityerr, hotalloc) — plus one on the code's own shape: no exported
// identifier of an internal/ package without a non-test caller
// (deadexport).
//
// The package is deliberately self-contained: it mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer / Pass / Diagnostic, testdata
// fixtures with `// want` comments) but is built only on the standard
// library's go/ast, go/parser, go/types and go/importer, so the module
// keeps its zero-dependency property. See docs/LINTING.md for the analyzer
// catalog and the suppression syntax.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer closely enough that the rules
// could be ported to a vettool unchanged if the dependency ever lands.
type Analyzer struct {
	// Name is the analyzer identifier used in diagnostics and in
	// //lint:allow suppression comments.
	Name string
	// Doc is the one-paragraph description shown by `gmlint -list`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// ExportFacts, optional, scans one package and records object facts
	// (see FactStore) that Run may import from any package. The driver
	// invokes it over the analyzed package's module-internal dependency
	// closure before Run, so cross-package facts are visible regardless of
	// the order packages are analyzed in. It must only export facts —
	// Reportf from this hook would duplicate diagnostics across dependents.
	ExportFacts func(*Pass)
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the parsed files of the package, comments included.
	Files []*ast.File
	// Pkg is the type-checker's package object.
	Pkg *types.Package
	// Info holds the type-checking results for Files.
	Info *types.Info
	// Facts is the cross-package fact store for this analysis run (nil in
	// passes that neither export nor import facts).
	Facts *FactStore

	diags  *[]Diagnostic
	loader *Loader // the loader that read Pkg; deadexport reads the module through it
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full gmlint suite in stable order: the original
// four domain analyzers, the recovery-safety suite, then deadexport.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		UnitSafety,
		Determinism,
		FloatEq,
		ObserverHot,
		SnapState,
		ApplyPath,
		DurabilityErr,
		HotAlloc,
		DeadExport,
	}
}

// Run applies the given analyzers to one loaded package and returns the
// diagnostics that survive //lint:allow suppression, sorted by position.
// Before any analyzer runs, every analyzer's ExportFacts hook is applied
// over the package's module-internal dependency closure, so cross-package
// facts (mutator annotations, state-mirror pairs) are in scope.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	store := NewFactStore()
	exportFactsClosure(store, pkg, analyzers)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Facts:    store,
			diags:    &diags,
			loader:   pkg.loader,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	extra := applySuppressions(pkg, &diags)
	diags = append(diags, extra...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// --- shared type/package predicates used by the analyzers ---

// pkgBase returns the last path element of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isPkg reports whether path denotes the named domain package, matching
// either the bare fixture form ("units") or any real module form
// (".../internal/units").
func isPkg(path, base string) bool {
	return pkgBase(path) == base
}

// unitKind reports which units quantity t is: "Power", "Energy", or ""
// when t is neither. It matches by named type from any package whose base
// name is "units", so analysistest fixtures can supply a stand-in package.
func unitKind(t types.Type) string {
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || !isPkg(obj.Pkg().Path(), "units") {
		return ""
	}
	switch obj.Name() {
	case "Power", "Energy":
		return obj.Name()
	}
	return ""
}

// isFloat reports whether t's underlying type is a floating-point kind
// (this includes named float types such as units.Power).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isAuditType reports whether t is (or points to) a named type defined in
// an audit package.
func isAuditType(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Named:
			obj := u.Obj()
			return obj.Pkg() != nil && isPkg(obj.Pkg().Path(), "audit")
		default:
			return false
		}
	}
}

// calleeObj resolves the called function object of a call expression, or
// nil for calls through non-identifier expressions (function values etc.).
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}
