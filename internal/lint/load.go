package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/core", or a bare fixture
	// path such as "core" under a test source root).
	Path string
	// Dir is the directory the files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker soft errors. Analysis proceeds on
	// a best-effort basis when non-empty; the driver reports them.
	TypeErrors []error
	// Imports lists the direct dependencies that resolved inside the
	// module or a fixture root (standard-library imports are absent), in
	// sorted import-path order. The fact-export phase walks this graph.
	Imports []*Package

	loader *Loader
}

// Loader parses and type-checks packages without any dependency on
// golang.org/x/tools. Packages inside the module (ModulePath/ModuleDir)
// and under the extra source roots are checked from source; everything
// else — the standard library — is delegated to go/importer's source
// importer, which resolves from GOROOT.
//
// A Loader caches by import path and is not safe for concurrent use.
type Loader struct {
	// ModulePath and ModuleDir identify the enclosing module. Both may be
	// empty when loading only fixture roots.
	ModulePath string
	ModuleDir  string
	// SrcRoots are GOPATH-src-style roots (used for testdata fixtures):
	// import path "units" resolves to <root>/units.
	SrcRoots []string
	// IncludeTests controls whether _test.go files are parsed. gmlint
	// analyzes non-test sources only: test files legitimately use the
	// escape hatches (raw float comparison against expected constants,
	// map-order-independent assertions) that the rules forbid.
	IncludeTests bool

	Fset *token.FileSet

	pkgs    map[string]*Package
	loading map[string]bool
	std     types.ImporterFrom
	uses    map[string]*useIndex // deadexport's module-wide index, by module
}

// NewLoader returns a loader rooted at the module containing dir, reading
// the module path from its go.mod. dir may be any directory inside the
// module.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	l := &Loader{ModulePath: modPath, ModuleDir: root}
	l.init()
	return l, nil
}

func (l *Loader) init() {
	if l.Fset == nil {
		l.Fset = token.NewFileSet()
	}
	l.pkgs = map[string]*Package{}
	l.loading = map[string]bool{}
	// The source importer type-checks the standard library from GOROOT
	// sources, which works offline and needs no export data. Cgo is
	// irrelevant for type-checking; disabling it keeps the pure-Go
	// variants of any cgo-capable stdlib package in scope.
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if d, ok := l.dirFor(path); ok {
		p, err := l.loadDir(path, d)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// dirFor maps an import path to a source directory when it belongs to the
// module or one of the fixture roots.
func (l *Loader) dirFor(path string) (string, bool) {
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.ModuleDir, true
		}
		if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
			return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
		}
	}
	for _, root := range l.SrcRoots {
		d := filepath.Join(root, filepath.FromSlash(path))
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			return d, true
		}
	}
	return "", false
}

// Load parses and type-checks the package with the given import path. It
// is the entry point for both the driver (module paths) and fixture tests
// (bare paths under a source root).
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	d, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: cannot resolve %q to a directory", path)
	}
	return l.loadDir(path, d)
}

func (l *Loader) loadDir(path, dir string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, loader: l}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, pkg.Info)
	if tpkg == nil {
		return nil, err
	}
	pkg.Types = tpkg
	// Record the module/fixture-internal dependencies the type check pulled
	// in (they are all cached by now), deterministically ordered.
	seen := map[string]bool{}
	var depPaths []string
	for _, f := range files {
		for _, imp := range f.Imports {
			p := impPath(imp)
			if dep, ok := l.pkgs[p]; ok && dep != pkg && !seen[p] {
				seen[p] = true
				depPaths = append(depPaths, p)
			}
		}
	}
	sort.Strings(depPaths)
	for _, p := range depPaths {
		pkg.Imports = append(pkg.Imports, l.pkgs[p])
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// ModulePackages expands "./..."-style patterns (as well as explicit
// "./x/y" arguments and bare import paths) into the module's package
// paths, sorted. Directories named testdata, hidden directories, and
// underscore-prefixed directories are skipped, mirroring the go tool.
func (l *Loader) ModulePackages(patterns ...string) ([]string, error) {
	if l.ModulePath == "" {
		return nil, fmt.Errorf("lint: ModulePackages requires a module loader")
	}
	seen := map[string]bool{}
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "all" {
			pat = "./..."
		}
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "./"
			}
		}
		rel := strings.TrimPrefix(pat, "./")
		if rest, ok := strings.CutPrefix(pat, l.ModulePath); ok {
			rel = strings.TrimPrefix(rest, "/")
		}
		base := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
		if !recursive {
			if hasGoFiles(base, l.IncludeTests) {
				add(l.pathFor(base))
			}
			continue
		}
		if err := walkPackages(base, l.IncludeTests, func(dir string) { add(l.pathFor(dir)) }); err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// walkPackages calls add for base and every directory below it that holds
// Go files, skipping testdata, hidden and underscore-prefixed directories.
func walkPackages(base string, includeTests bool, add func(dir string)) error {
	return filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(p, includeTests) {
			add(p)
		}
		return nil
	})
}

func (l *Loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

func hasGoFiles(dir string, includeTests bool) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		return true
	}
	return false
}
