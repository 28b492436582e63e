package lint

import "go/types"

// Fact is one piece of analyzer knowledge attached to a types.Object and
// visible across packages. The recovery-safety analyzers use facts to see
// through package boundaries without whole-program analysis: snapstate in
// internal/battery exports "Restore is the restore method of Battery", and
// snapstate in internal/core imports that fact to accept `s.bat.Restore(...)`
// as restoring the Simulator's bat field; applypath in internal/core exports
// "Live.Submit is a journaled mutator", and applypath in every other package
// imports it to flag calls that bypass the apply path.
type Fact struct {
	// Analyzer is the name of the analyzer that exported the fact.
	Analyzer string
	// Name is the fact kind within that analyzer's namespace (for example
	// "mutator", "snapshot", "restore").
	Name string
	// Detail is a free-form payload — typically the directive argument or
	// the owning type's name.
	Detail string
}

// FactStore accumulates object facts for one analysis run. Objects are
// identified by their types.Object; because a Loader caches packages and
// shares one FileSet, the object seen by the exporting package and the one
// seen by an importing package are pointer-identical.
//
// A FactStore is not safe for concurrent use, matching the Loader it is
// built over.
type FactStore struct {
	facts map[types.Object][]Fact
}

// NewFactStore returns an empty fact store.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[types.Object][]Fact{}}
}

// Export attaches a fact to obj. Duplicate (analyzer, name, detail) triples
// on the same object collapse to one — fact export runs once per dependency
// edge, so an object reachable through several importers would otherwise
// accumulate copies.
func (s *FactStore) Export(obj types.Object, f Fact) {
	if obj == nil {
		return
	}
	for _, have := range s.facts[obj] {
		if have == f {
			return
		}
	}
	s.facts[obj] = append(s.facts[obj], f)
}

// Get returns the fact of the given analyzer and kind attached to obj.
func (s *FactStore) Get(obj types.Object, analyzer, name string) (Fact, bool) {
	if obj == nil {
		return Fact{}, false
	}
	for _, f := range s.facts[obj] {
		if f.Analyzer == analyzer && f.Name == name {
			return f, true
		}
	}
	return Fact{}, false
}

// ExportObjectFact records a fact on obj in the pass's analyzer namespace.
// Only meaningful from an Analyzer.ExportFacts hook; a nil store (a Pass
// built without facts) ignores the export.
func (p *Pass) ExportObjectFact(obj types.Object, name, detail string) {
	if p.Facts == nil {
		return
	}
	p.Facts.Export(obj, Fact{Analyzer: p.Analyzer.Name, Name: name, Detail: detail})
}

// ImportObjectFact looks up a fact of the pass's analyzer on obj, whether it
// was exported by this package or by a dependency.
func (p *Pass) ImportObjectFact(obj types.Object, name string) (Fact, bool) {
	if p.Facts == nil {
		return Fact{}, false
	}
	return p.Facts.Get(obj, p.Analyzer.Name, name)
}

// exportFactsClosure runs every analyzer's ExportFacts hook over pkg's
// module-internal dependency closure (dependencies first) and then pkg
// itself, populating store. Facts derive from directives and declarations
// alone, so this phase is cheap and independent of analysis order —
// which is what lets LintModule analyze packages alphabetically while
// applypath in repro/cmd/gmserve still sees mutator facts from
// repro/internal/core.
func exportFactsClosure(store *FactStore, pkg *Package, analyzers []*Analyzer) {
	visited := map[*Package]bool{}
	var walk func(p *Package)
	walk = func(p *Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, dep := range p.Imports {
			walk(dep)
		}
		for _, a := range analyzers {
			if a.ExportFacts == nil {
				continue
			}
			a.ExportFacts(&Pass{
				Analyzer: a,
				Fset:     p.Fset,
				Files:    p.Files,
				Pkg:      p.Types,
				Info:     p.Info,
				Facts:    store,
			})
		}
	}
	walk(pkg)
}
