package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The reach analyzer turns unreachable code into a finding. A function or
// method declared in a scoped package is dead when no loaded non-test
// code outside its own body refers to it: its tests keep it compiling, so
// it looks alive, yet no program runs it. The loader never parses
// _test.go files, so a reference from a test does not count, and neither
// does a function calling itself.
//
// Unlike the other analyzers, reach needs every package at once — a
// helper in internal/ may be called only from cmd/, examples/ or bench/ —
// so it implements ModuleAnalyzer and Run hands it the whole load.
//
// Three things exempt a declaration:
//
//  1. A method whose receiver type satisfies an interface that appears
//     anywhere in the checked code (as the type of an expression, an
//     object, or a parameter or result of one) — a call through the
//     interface names the interface's method, not the concrete one.
//     Stdlib parameter types count: sort.Interface, heap.Interface,
//     http.Handler.
//     So do the interfaces the stdlib reaches through reflection on an
//     any argument (fmt.Stringer, the gob and json marshalers), once a
//     package imports their package.
//  2. A declaration marked `//tvdp:surface <reason>`: public API kept
//     for callers outside this module. On a type, the mark covers the
//     type's exported methods.
//  3. `//tvdp:nolint reach <reason>`, as for every analyzer.
//
// Package main's main and every init run without a reference and are
// never findings.

const surfacePrefix = "tvdp:surface"

// reflectedInterfaces names, by package, the interfaces the standard
// library calls through an any parameter, so no checked expression ever
// has their type.
var reflectedInterfaces = map[string][]string{
	"fmt":           {"Stringer"},
	"encoding/gob":  {"GobEncoder", "GobDecoder"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
}

// ModuleAnalyzer is an Analyzer that judges the loaded packages together.
// Run calls CheckModule once with every package instead of calling Check
// per package.
type ModuleAnalyzer interface {
	Analyzer
	CheckModule(pkgs []*Package) []Finding
}

// Reach is the analyzer. Scope lists import-path prefixes whose
// declarations must be reachable; references count from every package.
type Reach struct {
	Scope []string
}

// ReachScope is the production scope: the module's internal packages,
// which nothing outside the module can import.
var ReachScope = []string{"repro/internal"}

// NewReach returns the production-configured analyzer.
func NewReach() *Reach { return &Reach{Scope: ReachScope} }

func (r *Reach) Name() string { return "reach" }

// Doc describes the analyzer in one line.
func (r *Reach) Doc() string {
	return "functions and methods under internal/ must be referenced by non-test code outside their own body"
}

// Check is a no-op: reach judges the whole load in CheckModule.
func (r *Reach) Check(*Package) []Finding { return nil }

func (r *Reach) inScope(path string) bool {
	for _, p := range r.Scope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// CheckModule reports every scoped function and method that no loaded
// code outside its own body references.
func (r *Reach) CheckModule(pkgs []*Package) []Finding {
	used := map[*types.Func]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
		for _, imp := range pkg.Pkg.Imports() {
			for _, name := range reflectedInterfaces[imp.Path()] {
				addInterfaces(ifaces, imp.Scope().Lookup(name).Type())
			}
		}
		for _, tv := range pkg.Info.Types {
			addInterfaces(ifaces, tv.Type)
		}
		for _, objs := range [2]map[*ast.Ident]types.Object{pkg.Info.Defs, pkg.Info.Uses} {
			for _, obj := range objs {
				if obj != nil {
					addInterfaces(ifaces, obj.Type())
				}
			}
		}
	}

	var out []Finding
	for _, pkg := range pkgs {
		if !r.inScope(pkg.Path) {
			continue
		}
		surfaced, bad := surfaceDecls(pkg)
		out = append(out, bad...)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || used[fn] || fn.Name() == "_" || surfaced[fn] {
					continue
				}
				if fd.Recv == nil && (fn.Name() == "init" || (fn.Name() == "main" && pkg.Pkg.Name() == "main")) {
					continue
				}
				name := fn.Name()
				if recv := receiverNamed(fn); recv != nil {
					if fn.Exported() && surfaced[recv.Obj()] || satisfiesUsed(recv, fn.Name(), ifaces) {
						continue
					}
					name = "(" + recv.Obj().Name() + ")." + name
				}
				out = append(out, Finding{
					Analyzer: "reach",
					Pos:      posOf(pkg, fd.Name.Pos()),
					Message:  name + " is referenced by no non-test code outside its own body",
					Hint:     "delete it with the tests that exist only for it, or move it into a _test.go file if those tests check code that stays",
				})
			}
		}
	}
	return out
}

// addInterfaces records every interface with methods that t is or
// carries in a pointer, container or signature.
func addInterfaces(ifaces map[string][]*types.Interface, t types.Type) {
	switch t := t.(type) {
	case *types.Named, *types.Interface:
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			known := false
			for _, have := range ifaces[name] {
				if have == it {
					known = true
					break
				}
			}
			if !known {
				ifaces[name] = append(ifaces[name], it)
			}
		}
	case *types.Alias:
		addInterfaces(ifaces, types.Unalias(t))
	case *types.Pointer:
		addInterfaces(ifaces, t.Elem())
	case *types.Slice:
		addInterfaces(ifaces, t.Elem())
	case *types.Array:
		addInterfaces(ifaces, t.Elem())
	case *types.Chan:
		addInterfaces(ifaces, t.Elem())
	case *types.Map:
		addInterfaces(ifaces, t.Key())
		addInterfaces(ifaces, t.Elem())
	case *types.Signature:
		for _, tup := range [2]*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				addInterfaces(ifaces, tup.At(i).Type())
			}
		}
	}
}

// satisfiesUsed reports whether recv (or *recv) implements an interface
// from the checked code that declares a method called name.
func satisfiesUsed(recv *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	for _, it := range ifaces[name] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// receiverNamed returns the named type a method is declared on, or nil
// for a plain function.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	named, _ := deref(recv.Type()).(*types.Named)
	return named
}

// surfaceDecls collects the functions and types a package marks with
// //tvdp:surface. A mark without a reason exempts nothing and is
// reported.
func surfaceDecls(pkg *Package) (map[types.Object]bool, []Finding) {
	marked := map[types.Object]bool{}
	var bad []Finding
	mark := func(doc *ast.CommentGroup, name *ast.Ident) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			rest, ok := strings.CutPrefix(c.Text, "//"+surfacePrefix)
			if !ok {
				continue
			}
			if strings.TrimSpace(rest) == "" {
				bad = append(bad, Finding{
					Analyzer: "reach",
					Pos:      posOf(pkg, name.Pos()),
					Message:  "surface directive for " + name.Name + " has no reason; it exempts nothing",
					Hint:     "write //" + surfacePrefix + " <who calls this from outside the module>",
				})
				continue
			}
			marked[pkg.Info.Defs[name]] = true
		}
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				mark(d.Doc, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					mark(doc, ts.Name)
				}
			}
		}
	}
	return marked, bad
}
