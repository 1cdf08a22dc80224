// Package lint implements godiva-lint, a purpose-built static-analysis
// driver for this repository. It is deliberately standard-library-only
// (go/parser, go/ast, go/types, go/importer — no golang.org/x/tools), and
// its analyzers encode GODIVA-specific invariants that generic linters
// cannot know:
//
//   - lockcheck: fields annotated "guarded by mu" and *Locked functions are
//     only touched while the owning mutex is held.
//   - errcheck: error results of the godiva/core/remote public API are
//     never silently discarded (including "_ =" discards).
//   - atomiccheck: statsCounters-style atomic fields are only accessed
//     through atomic methods, never by plain reads/writes or struct copies.
//
// On top of the per-package suite, three interprocedural analyzers walk a
// class-hierarchy-analysis call graph (internal/lint/callgraph) spanning
// every package of a run, propagating held-lock sets, goroutine launches
// and may-allocate facts across calls:
//
//   - deadlockcheck: builds the whole-program lock-order graph and reports
//     any cycle, plus any channel operation, file/network I/O, time.Sleep,
//     WaitGroup.Wait or Cond.Wait reachable while a mutex is held (the
//     static face of the paper's §3.3 deadlock rule).
//   - leakcheck: every go statement launching a non-terminating goroutine
//     must have a reachable shutdown path — a stop channel that is closed,
//     a context cancel, or a WaitGroup join.
//   - alloccheck: functions annotated //godiva:noalloc must stay
//     allocation-free on their hot path (error-returning branches are
//     exempt), transitively through module calls.
//
// Three further module analyzers are flow-sensitive: they run forward
// abstract interpretation over per-function control-flow graphs (cfg.go,
// dataflow.go) with per-function summaries iterated to fixpoint over the
// call graph:
//
//   - releasecheck: every pin (WaitUnit/ReadUnit unit, FetchFile payload
//     ref) is released on every path to return — error returns included —
//     or explicitly handed off, and a hand-off is followed through the
//     callee's or caller's summary. The suite's only pin checker.
//   - borrowcheck: zero-copy borrows (BorrowFieldBuffer results, mmap
//     Raw/ReadSDS views, payload arena slices) are never written through,
//     never stored past their pin, never used after release; a unit's field
//     buffers are never used after its FinishUnit/DeleteUnit.
//   - wirecheck: integer lengths decoded from wire bytes pass a bound
//     check before sizing an allocation.
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

	"godiva/internal/lint/callgraph"
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

// An analyzer inspects one loaded package and reports findings.
type analyzer struct {
	name string
	doc  string
	run  func(p *Package) []Finding
}

// Analyzers is the full godiva-lint suite, in reporting order.
var analyzers = []*analyzer{
	lockcheckAnalyzer,
	errcheckAnalyzer,
	atomiccheckAnalyzer,
}

// A moduleAnalyzer inspects every package of a run at once, through the
// shared call graph, so facts propagate across package boundaries.
type moduleAnalyzer struct {
	name string
	doc  string
	run  func(mc *moduleContext) []Finding
}

// moduleAnalyzers is the interprocedural suite, in reporting order.
var moduleAnalyzers = []*moduleAnalyzer{
	deadlockcheckAnalyzer,
	leakcheckAnalyzer,
	alloccheckAnalyzer,
	releasecheckAnalyzer,
	borrowcheckAnalyzer,
	wirecheckAnalyzer,
	racecheckAnalyzer,
}

// moduleContext is the shared state handed to module analyzers: the loaded
// packages plus one call graph built over their production files.
type moduleContext struct {
	Pkgs  []*Package
	Graph *callgraph.Graph
	// CG maps each lint package to its call-graph counterpart.
	CG map[*Package]*callgraph.Package

	// cfgs memoizes per-body control-flow graphs for the flow-sensitive
	// analyzers (see cfg.go), which re-visit every function once per
	// summary-fixpoint pass.
	cfgs map[*ast.BlockStmt]*funcCFG
}

// newModuleContext builds the call graph over the production (non-test)
// files of the given packages.
func newModuleContext(pkgs []*Package) *moduleContext {
	mc := &moduleContext{Pkgs: pkgs, CG: make(map[*Package]*callgraph.Package)}
	var cgpkgs []*callgraph.Package
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		cp := &callgraph.Package{
			PkgPath: p.ImportPath,
			Info:    p.Info,
			Types:   p.Types,
		}
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			cp.Files = append(cp.Files, callgraph.File{Path: f.Path, AST: f.AST})
		}
		mc.CG[p] = cp
		cgpkgs = append(cgpkgs, cp)
	}
	mc.Graph = callgraph.Build(cgpkgs)
	return mc
}

// AnalyzerNames returns every analyzer name, per-package then module, in
// reporting order.
func AnalyzerNames() []string {
	var out []string
	for _, a := range analyzers {
		out = append(out, a.name)
	}
	for _, a := range moduleAnalyzers {
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
	for _, a := range moduleAnalyzers {
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
	for _, a := range moduleAnalyzers {
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

// RunPackage applies the full suite (including the module analyzers, on a
// single-package graph) to one loaded package, dropping findings suppressed
// by lint:ignore directives. Malformed directives are themselves findings.
func RunPackage(p *Package) []Finding {
	return dropSuppressed(runPackages([]*Package{p}, nil))
}

// runPackages runs the per-package and module analyzers over the given
// packages and marks suppressed findings. A non-nil sel restricts the run
// to the selected analyzers.
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
		for _, a := range analyzers {
			if sel != nil && !sel[a.name] {
				continue
			}
			out = append(out, a.run(p)...)
		}
	}
	mc := newModuleContext(pkgs)
	for _, a := range moduleAnalyzers {
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
		return a.Analyzer < b.Analyzer
	})
}
