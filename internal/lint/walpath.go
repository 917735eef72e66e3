package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// The walpath analyzer confines WAL writes to the group-commit path.
// Since PR 3, durability correctness rests on two facts: every frame is
// written by the committer goroutine (so log order matches apply order and
// batches coalesce fsyncs), and every frame's bytes come from encodeFrame
// (so each is a standalone CRC-framed gob stream recovery can verify).
// Nothing stops a future mutation from "just appending" to the log
// directly — it would even pass every test that doesn't crash mid-write.
// This analyzer is that stop:
//
//   - Methods on the walWriter type and on the walBackend interface
//     (Write/Sync/Close/append) may be called only from the WAL layer's
//     own files: wal.go, committer.go, and the segment engine's
//     durability files (segment.go writes blobs through the backend hook
//     so crash sweeps can tear them; engine.go and manifest.go
//     orchestrate rotation and installs). The fault-injection shim lives
//     in a _test.go file, which the loader never parses.
//   - walPayloads.encode — the raw payload encoder — may be called only
//     from wal.go, where encodeFrame wraps it in the length+CRC framing.
//
// The rules key on the type names, not the package name, so the fixture
// package under testdata exercises them without importing the store.

// WALPath is the analyzer. AllowedFiles lists base filenames permitted to
// touch the backend; EncoderFile is where raw payload encoding may live.
type WALPath struct {
	WriterType   string
	BackendType  string
	PayloadVar   string
	AllowedFiles []string
	EncoderFile  string
}

// NewWALPath returns the production-configured analyzer.
func NewWALPath() *WALPath {
	return &WALPath{
		WriterType:   "walWriter",
		BackendType:  "walBackend",
		PayloadVar:   "walPayloads",
		AllowedFiles: []string{"wal.go", "committer.go", "segment.go", "manifest.go", "engine.go"},
		EncoderFile:  "wal.go",
	}
}

func (w *WALPath) Name() string { return "walpath" }

// Doc describes the analyzer in one line.
func (w *WALPath) Doc() string {
	return "WAL backend writes are confined to the committer/WAL layer, and all frames go through encodeFrame"
}

// Check runs the analyzer over one package.
func (w *WALPath) Check(pkg *Package) []Finding {
	// Only packages that declare the WAL writer type are interesting.
	if pkg.Pkg.Scope().Lookup(w.WriterType) == nil && pkg.Pkg.Scope().Lookup(w.BackendType) == nil {
		return nil
	}
	allowed := map[string]bool{}
	for _, f := range w.AllowedFiles {
		allowed[f] = true
	}
	var out []Finding
	for _, file := range pkg.Files {
		base := filepath.Base(posOf(pkg, file.Pos()).Filename)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
			if fn == nil {
				return true
			}
			if !allowed[base] {
				if recv := recvTypeName(fn); recv != nil && recv.Pkg() == pkg.Pkg &&
					(recv.Name() == w.WriterType || recv.Name() == w.BackendType) {
					out = append(out, Finding{
						Analyzer: w.Name(),
						Pos:      posOf(pkg, call.Pos()),
						Message: fmt.Sprintf("direct %s.%s call outside the WAL layer (%s)",
							recv.Name(), fn.Name(), strings.Join(w.AllowedFiles, ", ")),
						Hint: "mutations must pre-encode frames and enqueue them on the group-commit committer",
					})
				}
			}
			if base != w.EncoderFile && fn.Name() == "encode" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && id.Name == w.PayloadVar {
					out = append(out, Finding{
						Analyzer: w.Name(),
						Pos:      posOf(pkg, call.Pos()),
						Message:  fmt.Sprintf("raw %s.encode call outside %s bypasses frame framing", w.PayloadVar, w.EncoderFile),
						Hint:     "call encodeFrame: every durable payload needs its length+CRC32C header",
					})
				}
			}
			return true
		})
	}
	return out
}

// recvTypeName returns the type name of a method's named receiver, nil for
// plain functions or unnamed receivers.
func recvTypeName(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	if named, ok := deref(sig.Recv().Type()).(*types.Named); ok {
		return named.Obj()
	}
	return nil
}
