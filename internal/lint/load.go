package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Loading strategy: walk the module tree for directories holding non-test
// .go files, parse each as one package, topologically sort by
// module-internal imports, and type-check in that order. Stdlib imports
// resolve through go/importer's source importer; module-internal imports
// resolve through the packages already checked — a two-level chain that
// keeps the whole loader inside the standard library.

// chainImporter serves module-internal packages from the checked set and
// delegates everything else to the stdlib source importer.
type chainImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// newInfo allocates the types.Info maps every analyzer relies on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// modulePath reads the module declaration from <root>/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s/go.mod", root)
}

// parsedPkg is one directory's worth of parsed-but-unchecked files.
type parsedPkg struct {
	path  string
	files []*ast.File
	// deps are the module-internal import paths (the topo-sort edges).
	deps []string
}

// LoadModule parses and type-checks every non-test package under root
// (skipping testdata and hidden directories) and returns them sorted by
// import path.
func LoadModule(root string) ([]*Package, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	dirs := map[string]bool{}
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dirs[filepath.Dir(p)] = true
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walking module: %w", err)
	}

	parsed := map[string]*parsedPkg{}
	for dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		ip := mod
		if rel != "." {
			ip = mod + "/" + filepath.ToSlash(rel)
		}
		pp, err := parseDir(fset, dir, ip, mod)
		if err != nil {
			return nil, err
		}
		if len(pp.files) > 0 {
			parsed[ip] = pp
		}
	}

	order, err := topoSort(parsed)
	if err != nil {
		return nil, err
	}

	imp := &chainImporter{
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*types.Package, len(order)),
	}
	var out []*Package
	for _, ip := range order {
		pkg, err := check(fset, parsed[ip].files, ip, imp)
		if err != nil {
			return nil, err
		}
		imp.pkgs[ip] = pkg.Pkg
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadFixture parses and type-checks a standalone fixture directory — the
// analyzer test fixtures under testdata/, which the module walk skips on
// purpose. A fixture with its own go.mod is a small module (the reach
// fixture needs a main package beside the one it judges) and loads like
// one. Otherwise the directory is one package with the import path
// "fixture/<dirname>" that may import only the standard library.
func LoadFixture(dir string) ([]*Package, error) {
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
		return LoadModule(dir)
	}
	fset := token.NewFileSet()
	ip := "fixture/" + filepath.Base(dir)
	pp, err := parseDir(fset, dir, ip, "")
	if err != nil {
		return nil, err
	}
	if len(pp.files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in fixture %s", dir)
	}
	imp := &chainImporter{std: importer.ForCompiler(fset, "source", nil)}
	pkg, err := check(fset, pp.files, ip, imp)
	if err != nil {
		return nil, err
	}
	return []*Package{pkg}, nil
}

func parseDir(fset *token.FileSet, dir, importPath, mod string) (*parsedPkg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	pp := &parsedPkg{path: importPath}
	seenDep := map[string]bool{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pp.files = append(pp.files, f)
		if mod == "" {
			continue
		}
		for _, im := range f.Imports {
			v, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				continue
			}
			if (v == mod || strings.HasPrefix(v, mod+"/")) && !seenDep[v] {
				seenDep[v] = true
				pp.deps = append(pp.deps, v)
			}
		}
	}
	return pp, nil
}

// topoSort orders packages so every module-internal dependency is checked
// before its importers. Iteration is over sorted keys so the order (and
// therefore any type-check error surfaced first) is stable run to run.
func topoSort(parsed map[string]*parsedPkg) ([]string, error) {
	keys := make([]string, 0, len(parsed))
	for k := range parsed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	var order []string
	var visit func(string, []string) error
	visit = func(p string, stack []string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(stack, p), " -> "))
		}
		state[p] = visiting
		pp, ok := parsed[p]
		if !ok {
			// An import of a module path with no Go files (or outside the
			// tree); let the type checker report it with position info.
			state[p] = done
			return nil
		}
		for _, d := range pp.deps {
			if err := visit(d, append(stack, p)); err != nil {
				return err
			}
		}
		state[p] = done
		order = append(order, p)
		return nil
	}
	for _, k := range keys {
		if err := visit(k, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func check(fset *token.FileSet, files []*ast.File, importPath string, imp types.Importer) (*Package, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Fset: fset, Files: files, Pkg: tpkg, Info: info}, nil
}
