package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// DeadExport flags exported API of internal/ packages that nothing but
// tests calls. Such an identifier is surface without a caller: it has to be
// read, kept compiling and kept covered, and it invites callers to grow
// against code that no program path exercises. A test-only helper belongs
// in a _test.go file; anything else with no caller is deleted.
//
// An exported package-level func, const, var or type, or an exported
// method, declared in a non-test file of a package whose import path has
// an internal/ element, is reported unless a non-test file of some module
// package references it. The references are collected over the whole
// module (every package `./...` names, benchmarks and examples included)
// even when gmlint is asked about one package. A method also counts as
// referenced when its receiver type, or a pointer to it, implements
// through that method an interface the type checker loaded: `Write` on an
// io.Writer, `Int63` on a rand.Source64, `Power` on a solar.Provider.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: "flag exported identifiers of internal/ packages that no non-test code in the " +
		"module references",
	Run: runDeadExport,
}

func runDeadExport(pass *Pass) error {
	if pass.loader == nil || !strings.Contains("/"+pass.Pkg.Path()+"/", "/internal/") {
		return nil
	}
	idx, err := pass.loader.moduleUses(pass.Pkg.Path())
	if err != nil {
		return err
	}
	check := func(id *ast.Ident, kind string) {
		if !id.IsExported() {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil || idx.used[obj] {
			return
		}
		name := id.Name
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if idx.satisfies(recv.Type(), fn) {
					return
				}
				name = recvName(recv.Type()) + "." + name
			}
		}
		pass.Reportf(id.Pos(),
			"exported %s %s has no non-test reference in the module; delete it, unexport it, or move it into the test that uses it",
			kind, name)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				kind := "func"
				if d.Recv != nil {
					kind = "method"
				}
				check(d.Name, kind)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							check(n, d.Tok.String())
						}
					case *ast.TypeSpec:
						check(s.Name, "type")
					}
				}
			}
		}
	}
	return nil
}

// recvName is the receiver's type name without pointer or type arguments.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// useIndex is what deadexport knows about one module: every object a
// non-test file references, and every interface with methods that the type
// check loaded, keyed by method name.
type useIndex struct {
	used       map[types.Object]bool
	interfaces map[string][]*types.Interface
}

// satisfies reports whether recv, or a pointer to it, implements some
// loaded interface that has a method named like fn.
func (x *useIndex) satisfies(recv types.Type, fn *types.Func) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, iface := range x.interfaces[fn.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// moduleUses returns the use index of the module that contains path,
// building it on first request. For a module loader that is every package
// ModulePackages("./...") names; for a fixture loader the top-level
// fixture directory of path stands in for the module.
func (l *Loader) moduleUses(path string) (*useIndex, error) {
	scope := l.ModulePath
	if scope == "" {
		scope, _, _ = strings.Cut(path, "/")
	}
	if idx, ok := l.uses[scope]; ok {
		return idx, nil
	}
	var paths []string
	if l.ModulePath != "" {
		var err error
		if paths, err = l.ModulePackages("./..."); err != nil {
			return nil, err
		}
	} else {
		for _, root := range l.SrcRoots {
			err := walkPackages(filepath.Join(root, scope), l.IncludeTests, func(dir string) {
				rel, _ := filepath.Rel(root, dir)
				paths = append(paths, filepath.ToSlash(rel))
			})
			if err != nil {
				return nil, err
			}
		}
	}
	idx := &useIndex{used: map[types.Object]bool{}, interfaces: map[string][]*types.Interface{}}
	seen := map[*types.Package]bool{}
	var addIfaces func(p *types.Package)
	addIfaces = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					idx.addInterface(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			addIfaces(imp)
		}
	}
	idx.addInterface(types.Universe.Lookup("error").Type())
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			idx.used[obj] = true
		}
		for _, tv := range pkg.Info.Types {
			idx.addInterface(tv.Type) // interface literals, as in x.(interface{ M() })
		}
		addIfaces(pkg.Types)
	}
	if l.uses == nil {
		l.uses = map[string]*useIndex{}
	}
	l.uses[scope] = idx
	return idx, nil
}

// addInterface records t under each of its method names when it is an
// interface with methods and no type set.
func (x *useIndex) addInterface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || !iface.IsMethodSet() {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		for _, have := range x.interfaces[name] {
			if have == iface {
				return
			}
		}
		x.interfaces[name] = append(x.interfaces[name], iface)
	}
}
