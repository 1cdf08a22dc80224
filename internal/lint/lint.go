// Package lint implements godiva-lint, a purpose-built static-analysis
// driver for this repository. It is deliberately standard-library-only
// (go/parser, go/ast, go/types, go/importer — no golang.org/x/tools), and
// its analyzers encode GODIVA-specific invariants that generic linters
// cannot know. Each analyzer walks the loaded packages one at a time;
// lockcheck follows the lock state along paths by forward abstract
// interpretation over per-function control-flow graphs (cfg.go,
// dataflow.go).
//
//   - lockcheck: fields annotated "guarded by mu" and *Locked functions are
//     only touched while the owning mutex is held (one function at a time,
//     over its CFG).
//   - errcheck: error results of the godiva/core/remote public API are
//     never silently discarded (including "_ =" discards).
//
// Pin releases, goroutine shutdown, atomic fields, wire-decoded lengths,
// locks held past a return or across a blocking call, and zero-copy borrows
// have no analyzer: every planted bug of those classes an analyzer caught,
// the tests, go vet, the -race stages or the fuzz targets catch too, or it
// changes nothing a program can observe (EXPERIMENTS.md, "Lint ledger,
// part 2" and "part 3"). Nor does //godiva:noalloc: it is a runtime
// contract, held by each package's TestNoAllocGates (internal/noalloctest),
// whose gates drive every non-error branch of an annotated function
// (EXPERIMENTS.md, "Lint ledger, part 4").
//
// Findings can be suppressed with a "//lint:ignore <analyzer> <reason>"
// directive on the offending line or the line directly above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer hit. Suppressed marks findings covered by a
// lint:ignore directive; Run drops them, RunAll keeps them marked (the CLI's
// -json mode reports them for editor tooling).
type Finding struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// File is one parsed source file of a lint package.
type File struct {
	Path string
	AST  *ast.File
	Test bool // *_test.go

	// Ignores maps a line number to the analyzer names suppressed on that
	// line by a lint:ignore directive ("all" suppresses every analyzer).
	Ignores map[int][]string
}

// Package is one directory loaded for analysis. Files holds every linted
// file; the primary package (production + in-package tests) is type-checked
// into Types/Info, an external _test package into XTypes/XInfo.
type Package struct {
	Dir        string
	ImportPath string // "" for directories outside the module (fixtures)
	Module     *Module
	Fset       *token.FileSet
	Files      []*File

	Types      *types.Package
	Info       *types.Info
	XTypes     *types.Package
	XInfo      *types.Info
	TypeErrors []error
}

// InfoFor returns the types.Info covering the given file (primary or
// external-test), which may be nil when type-checking failed entirely.
func (p *Package) InfoFor(f *File) *types.Info {
	if strings.HasSuffix(f.AST.Name.Name, "_test") {
		return p.XInfo
	}
	return p.Info
}

// An analyzer inspects every package of a run, through the shared module
// context.
type analyzer struct {
	name string
	doc  string
	run  func(mc *moduleContext) []Finding
}

// analyzers is the full godiva-lint suite, in reporting order.
var analyzers = []*analyzer{
	lockcheckAnalyzer,
	errcheckAnalyzer,
}

// eachPackage lifts a check that needs one package at a time to the
// analyzer interface.
func eachPackage(run func(p *Package) []Finding) func(mc *moduleContext) []Finding {
	return func(mc *moduleContext) []Finding {
		var out []Finding
		for _, p := range mc.Pkgs {
			out = append(out, run(p)...)
		}
		return out
	}
}

// moduleContext is the shared state handed to analyzers: the loaded
// packages.
type moduleContext struct {
	Pkgs []*Package

	// cfgs memoizes per-body control-flow graphs for lockcheck (see
	// cfg.go), which walks a function literal's body again each time the
	// dataflow fixpoint transfers the node that holds it.
	cfgs map[*ast.BlockStmt]*funcCFG
}

// AnalyzerNames returns every analyzer name in reporting order.
func AnalyzerNames() []string {
	var out []string
	for _, a := range analyzers {
		out = append(out, a.name)
	}
	return out
}

// checkOnly validates an analyzer selection against the registered suite.
func checkOnly(only []string) (map[string]bool, error) {
	if len(only) == 0 {
		return nil, nil
	}
	known := make(map[string]bool)
	for _, name := range AnalyzerNames() {
		known[name] = true
	}
	sel := make(map[string]bool)
	for _, name := range only {
		if !known[name] {
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(AnalyzerNames(), ", "))
		}
		sel[name] = true
	}
	return sel, nil
}

// AnalyzerDescriptions maps each analyzer name to its one-line doc (for
// tooling output such as SARIF rule metadata).
func AnalyzerDescriptions() map[string]string {
	out := make(map[string]string)
	for _, a := range analyzers {
		out[a.name] = a.doc
	}
	return out
}

// AnalyzerDocs returns "name: doc" lines for -help output.
func AnalyzerDocs() []string {
	var out []string
	for _, a := range analyzers {
		out = append(out, fmt.Sprintf("%-14s %s", a.name, a.doc))
	}
	return out
}

// Run lints the package directories named by the go-style patterns and
// returns all surviving findings, sorted by position. Parse failures are
// returned as the error; type-check problems degrade the analysis but do
// not stop it (mirroring go vet's behavior on broken trees they would fail
// the build stage first anyway).
func Run(m *Module, patterns []string) ([]Finding, error) {
	return RunOnly(m, patterns, nil)
}

// RunOnly is Run restricted to the named analyzers (nil or empty runs the
// full suite). Unknown names are rejected before any package is loaded.
func RunOnly(m *Module, patterns, only []string) ([]Finding, error) {
	all, err := RunAllOnly(m, patterns, only)
	if err != nil {
		return nil, err
	}
	return dropSuppressed(all), nil
}

// RunAll is Run without the suppression filter: findings covered by a
// lint:ignore directive are returned with Suppressed set instead of being
// dropped, so tooling (the CLI's -json mode) can surface them.
func RunAll(m *Module, patterns []string) ([]Finding, error) {
	return RunAllOnly(m, patterns, nil)
}

// RunAllOnly is RunAll restricted to the named analyzers (nil or empty runs
// the full suite). Malformed lint:ignore directives are always reported —
// they are defects of the suppression machinery, not of any one analyzer.
func RunAllOnly(m *Module, patterns, only []string) ([]Finding, error) {
	sel, err := checkOnly(only)
	if err != nil {
		return nil, err
	}
	dirs, err := m.ExpandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := m.LintPackage(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return runPackages(pkgs, sel), nil
}

// RunPackage applies the full suite to one loaded package, dropping findings suppressed by lint:ignore
// directives. Malformed directives are themselves findings.
func RunPackage(p *Package) []Finding {
	return dropSuppressed(runPackages([]*Package{p}, nil))
}

// runPackages runs the analyzers over the given packages and marks
// suppressed findings. A non-nil sel restricts the run to the selected
// analyzers.
func runPackages(pkgs []*Package, sel map[string]bool) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, f := range p.Files {
			for line, names := range f.Ignores {
				if len(names) == 0 {
					out = append(out, Finding{
						Pos:      token.Position{Filename: f.Path, Line: line, Column: 1},
						Analyzer: "directive",
						Message:  "malformed lint:ignore directive: want //lint:ignore <analyzer>[,<analyzer>] <reason>",
					})
				}
			}
		}
	}
	mc := &moduleContext{Pkgs: pkgs}
	for _, a := range analyzers {
		if sel != nil && !sel[a.name] {
			continue
		}
		out = append(out, a.run(mc)...)
	}
	files := make(map[string]*File)
	for _, p := range pkgs {
		for _, f := range p.Files {
			files[f.Path] = f
		}
	}
	for i := range out {
		out[i].Suppressed = out[i].Analyzer != "directive" && suppressedIn(files, out[i])
	}
	sortFindings(out)
	return out
}

func dropSuppressed(fs []Finding) []Finding {
	out := fs[:0]
	for _, f := range fs {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// suppressedIn reports whether a lint:ignore directive in the finding's file
// covers the finding's line for its analyzer.
func suppressedIn(files map[string]*File, f Finding) bool {
	file := files[f.Pos.Filename]
	if file == nil {
		return false
	}
	for _, name := range file.Ignores[f.Pos.Line] {
		if name == "all" || name == f.Analyzer {
			return true
		}
	}
	return false
}

// collectIgnores finds lint:ignore directives in a parsed file. A directive
// suppresses the named analyzers on the last line of its comment group
// (trailing-comment form) and on the first line after the group (preceding-
// comment form, including multi-line explanation comments).
func collectIgnores(fset *token.FileSet, f *ast.File) map[int][]string {
	ignores := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(strings.TrimSpace(text), "lint:ignore")
			if text == strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) {
				continue // no lint:ignore prefix
			}
			fields := strings.Fields(text)
			endLine := fset.Position(cg.End()).Line
			if len(fields) < 2 {
				// Analyzer list without a reason (or nothing at all):
				// an empty entry marks the directive as malformed.
				line := fset.Position(c.Pos()).Line
				if _, ok := ignores[line]; !ok {
					ignores[line] = nil
				}
				continue
			}
			names := strings.Split(fields[0], ",")
			ignores[endLine] = append(ignores[endLine], names...)
			ignores[endLine+1] = append(ignores[endLine+1], names...)
		}
	}
	if len(ignores) == 0 {
		return nil
	}
	return ignores
}

// sortFindings orders findings by position, analyzer and message: a total
// order, so the output never depends on the order the analyzers ran in.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
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
}
