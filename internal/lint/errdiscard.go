package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// The errdiscard analyzer closes the quiet durability holes: a discarded
// Close, Sync, Flush, or Write error in the storage or API layer. A WAL
// whose final fsync error vanished is a log that lies about what is
// durable; a segment temp file whose Close error was dropped can install
// a truncated segment. `go vet` does not flag these (dropping an error
// is legal Go), and -race never will, so the rule lives here, scoped to
// the packages where a lost write error costs data or masks a failed
// read fan-out: internal/store, internal/api, internal/shard, and
// internal/query.
//
// Flagged shapes, when the method is named Close/Sync/Flush/Write and
// returns an error:
//
//	f.Close()            // expression statement
//	defer f.Close()      // deferred discard
//	go f.Close()         // goroutine discard
//	_ = f.Close()        // blank assignment
//
// Read-side closes whose error genuinely cannot lose data (a read-only
// fd, an HTTP response body) are the intended nolint sites — with the
// justification spelled out.

// ErrDiscard is the analyzer. Scope lists import-path prefixes it applies
// to; Methods is the checked method-name set.
type ErrDiscard struct {
	Scope   []string
	Methods []string
}

// ErrDiscardScope is the production scope: the layers where a lost
// write/close error can silently cost durable data, plus the shard
// fan-out and query cache tiers, whose goroutines and cache fills
// discard errors the same way.
var ErrDiscardScope = []string{
	"repro/internal/store",
	"repro/internal/api",
	"repro/internal/shard",
	"repro/internal/query",
	"repro/internal/ingest",
}

// NewErrDiscard returns the production-configured analyzer.
func NewErrDiscard() *ErrDiscard {
	return &ErrDiscard{
		Scope:   ErrDiscardScope,
		Methods: []string{"Close", "Sync", "Flush", "Write"},
	}
}

func (e *ErrDiscard) Name() string { return "errdiscard" }

// Doc describes the analyzer in one line.
func (e *ErrDiscard) Doc() string {
	return "Close/Sync/Flush/Write errors in the store, api, shard, and query layers must be handled, not dropped"
}

func (e *ErrDiscard) inScope(path string) bool {
	for _, p := range e.Scope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Check runs the analyzer over one package.
func (e *ErrDiscard) Check(pkg *Package) []Finding {
	if !e.inScope(pkg.Path) {
		return nil
	}
	methods := map[string]bool{}
	for _, m := range e.Methods {
		methods[m] = true
	}
	var out []Finding
	report := func(call *ast.CallExpr, how string) {
		fn := e.checkedMethod(pkg, call, methods)
		if fn == nil {
			return
		}
		out = append(out, Finding{
			Analyzer: e.Name(),
			Pos:      posOf(pkg, call.Pos()),
			Message:  fmt.Sprintf("%s error discarded (%s)", fn.Name(), how),
			Hint:     "handle it — propagate, errors.Join into the returned error, or log; a dropped " + fn.Name() + " error can hide lost writes",
		})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					report(call, "call result unused")
				}
			case *ast.DeferStmt:
				report(n.Call, "deferred without capturing the error")
			case *ast.GoStmt:
				report(n.Call, "goroutine result unused")
			case *ast.AssignStmt:
				if !allBlank(n.Lhs) {
					return true
				}
				for _, rhs := range n.Rhs {
					if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
						report(call, "assigned to _")
					}
				}
			}
			return true
		})
	}
	return out
}

// checkedMethod returns the called method if it is one of the checked
// names and its signature returns an error.
func (e *ErrDiscard) checkedMethod(pkg *Package, call *ast.CallExpr, methods map[string]bool) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || !methods[fn.Name()] {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return fn
		}
	}
	return nil
}

func allBlank(lhs []ast.Expr) bool {
	for _, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
