// Package lint is TVDP's in-tree static-analysis engine. It exists because
// the platform's most load-bearing invariants — the store's six-lock
// acquisition order, the pipeline's determinism contract, the rule that
// every WAL frame flows through the group-commit committer — are invisible
// to the compiler and to `go test -race`. The race detector observes one
// schedule; these analyzers read the source and reject programs whose
// *possible* schedules or replays violate the contracts.
//
// The engine is stdlib-only: packages are parsed with go/parser and
// type-checked with go/types, stdlib imports resolve through go/importer's
// source importer, and module-internal imports resolve through the checked
// packages themselves (see load.go). No golang.org/x/tools dependency.
//
// Findings can be suppressed inline with
//
//	//tvdp:nolint <analyzer>[,<analyzer>...] <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory: a directive without one suppresses nothing and is itself
// reported (see nolint.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one invariant violation: where, which analyzer, what broke,
// and a one-line hint at the idiomatic fix.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Hint     string
}

// String renders the finding in the file:line:col form editors understand.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	if f.Hint != "" {
		s += " (fix: " + f.Hint + ")"
	}
	return s
}

// Package is one loaded, type-checked package handed to analyzers.
type Package struct {
	// Path is the import path ("repro/internal/store"); fixture packages
	// loaded from a bare directory get "fixture/<dirname>".
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Analyzer is one invariant checker. Check must be deterministic: same
// package in, same findings out, in a stable order.
type Analyzer interface {
	// Name is the registry key used in findings and nolint directives.
	Name() string
	// Doc is the one-line description `tvdp-lint -list` prints.
	Doc() string
	Check(pkg *Package) []Finding
}

// DefaultAnalyzers returns the production-configured analyzer registry.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NewLockOrder(),
		NewDeterminism(),
		NewWALPath(),
		NewErrDiscard(),
		NewCtxFlow(),
		NewSqrtScan(),
		NewGuardedBy(),
		NewGoLifecycle(),
		NewFsyncOrder(),
		NewReach(),
	}
}

// Run executes every analyzer over every package (a ModuleAnalyzer over
// all of them at once), applies nolint suppression, and returns the
// surviving findings sorted by position. Malformed directives (no
// justification) are reported as findings of the synthetic "nolint"
// analyzer and do not suppress anything; well-formed directives that
// suppressed nothing — judged only when every analyzer they name is part
// of this run — are reported as stale.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name()] = true
	}
	var out []Finding
	dirs := directiveSet{}
	for _, pkg := range pkgs {
		ds, bad := parseDirectives(pkg)
		out = append(out, bad...)
		for file, lines := range ds {
			dirs[file] = lines
		}
	}
	keep := func(fs []Finding) {
		for _, f := range fs {
			if !dirs.suppresses(f) {
				out = append(out, f)
			}
		}
	}
	for _, a := range analyzers {
		if m, ok := a.(ModuleAnalyzer); ok {
			keep(m.CheckModule(pkgs))
			continue
		}
		for _, pkg := range pkgs {
			keep(a.Check(pkg))
		}
	}
	out = append(out, dirs.stale(ran)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// funcObj resolves a call expression to the package-level *types.Func it
// invokes (through a plain identifier or a method/package selector), or nil
// when the callee is not a statically known function (function values,
// built-ins, conversions).
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// deref unwraps pointer types.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
