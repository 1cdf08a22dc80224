// Package noalloctest holds the //godiva:noalloc contract. The directive
// on a function means one thing: every path through it that does not return
// an error runs without allocating. Check enforces that at run time with
// testing.AllocsPerRun, and keeps annotations and gates from drifting: every
// annotated function in a package must have a gate, and every gate must
// correspond to an annotated function.
//
// Gate keys name methods as "ReceiverBaseType.Name" (pointer receivers and
// type parameters stripped) and plain functions by bare name. A package's
// gate test calls Check with one closure per key; each closure drives every
// branch of the annotated function that does not end in an error return —
// each case, each early return of a non-error result, each skipped loop
// iteration — on every call, so an allocation added to any of them shows in
// the measured average. A new such branch in an annotated function gets a
// call in its gate. The closure must itself stay allocation-free (pre-box
// interface values, reuse scratch buffers, keep results in outer
// variables).
package noalloctest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const directive = "//godiva:noalloc"

// runs per AllocsPerRun measurement; retries absorb one-off background
// allocations (GC metadata, pool refills) that are not the function's own.
const (
	runsPerMeasure = 100
	maxTries       = 3
)

// Check verifies that pkgDir's //godiva:noalloc annotations and the supplied
// gates agree exactly, then measures every gate with testing.AllocsPerRun
// and fails unless each averages zero allocations per run. pkgDir is usually
// "." (tests run in their package directory); only production files are
// scanned, so gates themselves never demand further gates.
func Check(t *testing.T, pkgDir string, gates map[string]func()) {
	t.Helper()
	annotated := annotatedKeys(t, pkgDir)
	for _, k := range annotated {
		if _, ok := gates[k]; !ok {
			t.Errorf("noalloctest: %s is marked %s but has no AllocsPerRun gate; add one to this test", k, directive)
		}
	}
	seen := make(map[string]bool, len(annotated))
	for _, k := range annotated {
		seen[k] = true
	}
	for k := range gates {
		if !seen[k] {
			t.Errorf("noalloctest: gate %q matches no %s function in %s; annotate the function or drop the gate", k, directive, pkgDir)
		}
	}
	if t.Failed() {
		return
	}
	keys := make([]string, 0, len(gates))
	for k := range gates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn := gates[k]
		fn() // warm up lazy state: pools, maps, first-use growth
		var avg float64
		for try := 0; try < maxTries; try++ {
			avg = testing.AllocsPerRun(runsPerMeasure, fn)
			if avg == 0 {
				break
			}
		}
		if avg != 0 {
			t.Errorf("noalloctest: %s averaged %v allocs/run, want 0 (%s)", k, avg, directive)
		}
	}
}

// annotatedKeys parses the production .go files of pkgDir and returns the
// gate key of every function carrying the //godiva:noalloc directive.
func annotatedKeys(t *testing.T, pkgDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatalf("noalloctest: reading %s: %v", pkgDir, err)
	}
	fset := token.NewFileSet()
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(pkgDir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("noalloctest: parsing %s: %v", name, err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
					keys = append(keys, gateKey(fd))
					break
				}
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// gateKey derives the gate map key for an annotated declaration.
func gateKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvBase(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// recvBase strips pointers and type parameters off a receiver type
// expression, leaving the base type name.
func recvBase(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvBase(x.X)
	case *ast.IndexExpr:
		return recvBase(x.X)
	case *ast.IndexListExpr:
		return recvBase(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
