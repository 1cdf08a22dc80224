package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module loads and type-checks the packages of one Go module using only the
// standard library (go/parser + go/types + go/importer): module-local import
// paths are resolved against the module root and type-checked from source;
// everything else (the standard library) goes through the go/importer
// "source" importer. Loads are memoized, so a whole-module lint run checks
// each package once.
type Module struct {
	Root string // absolute path of the directory holding go.mod
	Path string // module path declared in go.mod

	fset     *token.FileSet
	std      types.ImporterFrom
	cache    map[string]*types.Package // import path -> checked (non-test files only)
	checking map[string]bool           // cycle guard
}

// LoadModule prepares a loader for the module rooted at root (the directory
// containing go.mod).
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &Module{
		Root:     root,
		Path:     modPath,
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:    make(map[string]*types.Package),
		checking: make(map[string]bool),
	}
	return m, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// Fset returns the file set all loads share.
func (m *Module) Fset() *token.FileSet { return m.fset }

// ExpandPatterns resolves go-style package patterns (".", "./...",
// "./internal/core") into package directories, relative to the module root.
// Directories named testdata or vendor, and hidden or underscore-prefixed
// directories, are skipped by "..." expansion exactly as the go tool skips
// them.
func (m *Module) ExpandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec = true
			pat = rest
			if pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(m.Root, base)
		}
		if fi, err := os.Stat(base); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("package pattern %q: no such directory", pat)
		}
		if !rec {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// parseDir parses every .go file in dir that go build would compile for the
// host (go/build's default context decides, file-name suffixes and
// //go:build lines alike) with ParseComments on, split into primary-package
// files (production + in-package tests) and external-test-package files
// (package foo_test).
func (m *Module) parseDir(dir string) (prim, xtest []*File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue
		}
		path := filepath.Join(dir, name)
		af, err := parser.ParseFile(m.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		f := &File{
			Path:    path,
			AST:     af,
			Test:    strings.HasSuffix(name, "_test.go"),
			Ignores: collectIgnores(m.fset, af),
		}
		if strings.HasSuffix(af.Name.Name, "_test") {
			xtest = append(xtest, f)
		} else {
			prim = append(prim, f)
		}
	}
	sortFiles(prim)
	sortFiles(xtest)
	return prim, xtest, nil
}

func sortFiles(fs []*File) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].Path < fs[j].Path })
}

// importPathFor maps a package directory inside the module to its import
// path, or "" if the directory lies outside the module tree (fixtures).
func (m *Module) importPathFor(dir string) string {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return ""
	}
	if rel == "." {
		return m.Path
	}
	return m.Path + "/" + filepath.ToSlash(rel)
}

// Import implements types.Importer for module-local and standard-library
// paths. Module-local packages are type-checked from their non-test sources
// and memoized; anything else defers to the source importer. Failed imports
// come back as empty placeholder packages so checking can continue —
// resulting type errors are collected, not fatal.
func (m *Module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.Root, 0)
}

// ImportFrom implements types.ImporterFrom.
func (m *Module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := m.cache[path]; ok {
		return pkg, nil
	}
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		if m.checking[path] {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		m.checking[path] = true
		defer delete(m.checking, path)
		sub := filepath.Join(m.Root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, m.Path), "/")))
		prim, _, err := m.parseDir(sub)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, f := range prim {
			if !f.Test {
				files = append(files, f.AST)
			}
		}
		cfg := &types.Config{
			Importer: m,
			Error:    func(error) {}, // partial info is fine for imports
		}
		pkg, _ := cfg.Check(path, m.fset, files, nil)
		if pkg == nil {
			return nil, fmt.Errorf("type-checking %q produced no package", path)
		}
		m.cache[path] = pkg
		return pkg, nil
	}
	pkg, err := m.std.ImportFrom(path, dir, mode)
	if err != nil || pkg == nil {
		// Placeholder keeps the check going; uses of the package's members
		// surface as (ignored) type errors.
		pkg = types.NewPackage(path, filepath.Base(path))
	}
	m.cache[path] = pkg
	return pkg, nil
}

// LintPackage loads one directory for analysis: the primary package is
// type-checked together with its in-package test files, and any external
// _test package is checked separately. Both land in the returned Package
// (external test files carry their own types.Info).
func (m *Module) LintPackage(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	prim, xtest, err := m.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(prim) == 0 && len(xtest) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	pkg := &Package{
		Dir:        dir,
		ImportPath: m.importPathFor(dir),
		Module:     m,
		Fset:       m.fset,
		Files:      append(append([]*File(nil), prim...), xtest...),
	}
	check := func(path string, fs []*File) (*types.Package, *types.Info, []error) {
		var errs []error
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		cfg := &types.Config{
			Importer: m,
			Error:    func(err error) { errs = append(errs, err) },
		}
		var files []*ast.File
		for _, f := range fs {
			files = append(files, f.AST)
		}
		tp, _ := cfg.Check(path, m.fset, files, info)
		return tp, info, errs
	}
	checkPath := pkg.ImportPath
	if checkPath == "" {
		checkPath = "lintcheck/" + filepath.Base(dir)
	}
	if len(prim) > 0 {
		// The import cache must hold the production-only package (that is
		// what other packages import); the lint check adds in-package tests.
		if pkg.ImportPath != "" {
			if _, err := m.Import(pkg.ImportPath); err != nil {
				pkg.TypeErrors = append(pkg.TypeErrors, err)
			}
		}
		tp, info, errs := check(checkPath, prim)
		pkg.Types, pkg.Info = tp, info
		pkg.TypeErrors = append(pkg.TypeErrors, errs...)
	}
	if len(xtest) > 0 {
		tp, info, errs := check(checkPath+"_test", xtest)
		pkg.XTypes, pkg.XInfo = tp, info
		pkg.TypeErrors = append(pkg.TypeErrors, errs...)
	}
	return pkg, nil
}
