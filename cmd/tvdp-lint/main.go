// Command tvdp-lint runs TVDP's invariant analyzers (internal/lint) over
// the module: lockorder, determinism, walpath, errdiscard, ctxflow,
// sqrtscan, guardedby, golifecycle, fsyncorder, reach.
//
// Usage:
//
//	tvdp-lint ./...                        # whole module (the CI gate)
//	tvdp-lint ./internal/store             # restrict findings to a subtree
//	tvdp-lint ./internal/lint/testdata/lockorder   # lint a fixture package
//	tvdp-lint -list                        # print the analyzer registry
//	tvdp-lint -json ./...                  # machine-readable findings
//
// Exit status: 0 when clean, 1 when any finding survives nolint
// suppression, 2 on load or usage errors. Findings print one per line as
//
//	file:line:col: [analyzer] message (fix: hint)
//
// or, with -json, as one JSON object per line
//
//	{"file":...,"line":...,"col":...,"analyzer":...,"message":...,"hint":...}
//
// in the same deterministic order and with the same exit status, so CI
// and editors can consume findings without parsing prose.
//
// Suppression: //tvdp:nolint <analyzer>[,<analyzer>] <reason> on the
// offending line or the line above. The reason is mandatory; a bare
// directive suppresses nothing and is itself a finding, and a directive
// that no longer suppresses anything is reported as stale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// jsonFinding is the -json wire shape: one object per line.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Hint     string `json:"hint,omitempty"`
}

func main() {
	list := flag.Bool("list", false, "print the analyzer registry and exit")
	jsonOut := flag.Bool("json", false, "emit findings as one JSON object per line")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tvdp-lint [-list] [-json] [packages]\n\npackages: ./... for the whole module, directories for a subtree,\nor a testdata fixture directory for a standalone package.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name(), a.Doc())
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	findings, err := run(args, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvdp-lint:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		if *jsonOut {
			if err := enc.Encode(jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
				Hint:     f.Hint,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "tvdp-lint:", err)
				os.Exit(2)
			}
			continue
		}
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "tvdp-lint: %d invariant finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func run(args []string, analyzers []lint.Analyzer) ([]lint.Finding, error) {
	// Fixture directories (under a testdata tree) load standalone, with
	// the path-scoped analyzers widened to cover them; everything else is
	// a selector over the module load.
	var fixtures, selectors []string
	wholeModule := false
	for _, a := range args {
		switch {
		case strings.Contains(a, "testdata"):
			fixtures = append(fixtures, a)
		case a == "./..." || a == "...":
			wholeModule = true
		default:
			selectors = append(selectors, strings.TrimSuffix(a, "/..."))
		}
	}

	var findings []lint.Finding
	if wholeModule || len(selectors) > 0 {
		root, err := moduleRoot()
		if err != nil {
			return nil, err
		}
		pkgs, err := lint.LoadModule(root)
		if err != nil {
			return nil, err
		}
		fs := lint.Run(pkgs, analyzers)
		if !wholeModule {
			fs, err = filterToDirs(fs, selectors)
			if err != nil {
				return nil, err
			}
		}
		findings = append(findings, fs...)
	}
	for _, dir := range fixtures {
		pkgs, err := lint.LoadFixture(dir)
		if err != nil {
			return nil, err
		}
		findings = append(findings, lint.Run(pkgs, fixtureAnalyzers())...)
	}
	return findings, nil
}

// fixtureAnalyzers widens the path-scoped analyzers to the fixture
// namespace so a testdata package exercises every rule.
func fixtureAnalyzers() []lint.Analyzer {
	det := lint.NewDeterminism()
	det.Scope = []string{"fixture"}
	ed := lint.NewErrDiscard()
	ed.Scope = []string{"fixture"}
	cf := lint.NewCtxFlow()
	cf.BackgroundScope = []string{"fixture"}
	sq := lint.NewSqrtScan()
	sq.Scope = []string{"fixture"}
	gl := lint.NewGoLifecycle()
	gl.Scope = []string{"fixture"}
	fo := lint.NewFsyncOrder()
	fo.Scope = []string{"fixture"}
	// Every fixture declares functions nothing calls, so reach judges
	// only its own fixture; anywhere else it would flag them all and mask
	// a blind analyzer.
	re := lint.NewReach()
	re.Scope = []string{"fixture/reach"}
	return []lint.Analyzer{lint.NewLockOrder(), det, lint.NewWALPath(), ed, cf, sq, lint.NewGuardedBy(), gl, fo, re}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// filterToDirs keeps findings whose file lives under one of the selector
// directories.
func filterToDirs(fs []lint.Finding, dirs []string) ([]lint.Finding, error) {
	var roots []string
	for _, d := range dirs {
		abs, err := filepath.Abs(d)
		if err != nil {
			return nil, err
		}
		roots = append(roots, abs)
	}
	var out []lint.Finding
	for _, f := range fs {
		abs, err := filepath.Abs(f.Pos.Filename)
		if err != nil {
			return nil, err
		}
		for _, r := range roots {
			if abs == r || strings.HasPrefix(abs, r+string(filepath.Separator)) {
				out = append(out, f)
				break
			}
		}
	}
	return out, nil
}
