package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// errcheck flags silently discarded error results of the godiva public API
// (the core DB/Record/Buffer surface and the remote client/server):
//
//   - a call used as a bare statement whose last result is an error;
//   - "_ = call(...)" and "v, _ := call(...)" where the blank swallows the
//     API error;
//   - "_ = v" no-op discards of a previously captured value (these hide
//     an unasserted result, most often in tests).
//
// Deferred and go-routine calls are exempt (defer db.Close() is the normal
// shutdown idiom). Unlike the other analyzers, errcheck also runs on test
// files: a test that swallows an API error usually meant to assert it.
var errcheckAnalyzer = &analyzer{
	name: "errcheck",
	doc:  "discarded error results on the godiva public API",
	run:  runErrcheck,
}

// apiErrorFuncs is the curated godiva API whose trailing error result must
// be consumed. Method names are matched together with the receiver's
// package, so fmt.Println or os.File.Close never trigger.
var apiErrorFuncs = map[string]bool{
	// core DB lifecycle + schema
	"Close": true, "SetMemSpace": true,
	"DefineField": true, "DefineRecordType": true, "InsertField": true,
	"CommitRecordType": true,
	// unit lifecycle
	"AddUnit": true, "ReadUnit": true, "WaitUnit": true,
	"FinishUnit": true, "DeleteUnit": true,
	// records and buffers
	"NewRecord": true, "CommitRecord": true, "DeleteRecord": true,
	"AllocFieldBuffer": true, "FieldBuffer": true, "SetString": true,
	"Bytes": true, "Int32s": true, "Int64s": true,
	"Float32s": true, "Float64s": true, "StringValue": true,
	// queries
	"GetRecord": true, "GetFieldBuffer": true, "GetFieldBufferSize": true,
	"CountRecords": true, "EachRecord": true,
	// remote unit service
	"Ping": true, "Spec": true, "FetchFile": true, "FetchFiles": true,
	"Ingest": true, "Subscribe": true, "Serve": true,
}

func runErrcheck(p *Package) []Finding {
	var out []Finding
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, Finding{
			Pos:      p.Fset.Position(n.Pos()),
			Analyzer: "errcheck",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range p.Files {
		info := p.InfoFor(f)
		if info == nil {
			continue
		}
		skip := make(map[ast.Node]bool) // defer/go call exprs
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				skip[n.Call] = true
			case *ast.GoStmt:
				skip[n.Call] = true
			case *ast.ExprStmt:
				if name, ok := apiErrorCall(p, info, n.X); ok && !skip[n.X] {
					report(n, "result of %s is discarded (last result is an error)", name)
				}
			case *ast.AssignStmt:
				checkAssignDiscard(p, info, n, report)
			}
			return true
		})
	}
	return out
}

// checkAssignDiscard handles the blank-assignment discard forms.
func checkAssignDiscard(p *Package, info *types.Info, n *ast.AssignStmt, report func(ast.Node, string, ...any)) {
	allBlank := true
	for _, l := range n.Lhs {
		if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
			allBlank = false
			break
		}
	}
	if allBlank {
		for _, r := range n.Rhs {
			if name, ok := apiErrorCall(p, info, r); ok {
				report(n, "error result of %s is discarded with a blank assignment", name)
				continue
			}
			switch r.(type) {
			case *ast.Ident, *ast.SelectorExpr:
				// "_ = v" has no effect at all; it usually marks a value
				// that was captured and then never asserted.
				report(n, "blank assignment of %s has no effect (assert or drop the value)", exprString(r))
			}
		}
		return
	}
	// v, _ := apiCall(...): the blank in the error position swallows it.
	if len(n.Rhs) == 1 {
		name, ok := apiErrorCall(p, info, n.Rhs[0])
		if !ok || len(n.Lhs) < 2 {
			return
		}
		if id, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
			report(n, "error result of %s is discarded with a blank identifier", name)
		}
	}
}

// apiErrorCall reports whether e is a call to a curated godiva API function
// whose last result is an error, returning a printable name.
func apiErrorCall(p *Package, info *types.Info, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", false
	}
	if !apiErrorFuncs[id.Name] {
		return "", false
	}
	obj := info.Uses[id]
	if obj == nil {
		return "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	// Restrict to the curated API surfaces: the godiva façade, the core
	// engine and the remote unit service. Same-named methods elsewhere
	// (platform file handles, genx readers, os.File) are out of scope.
	pkg := fn.Pkg()
	if pkg == nil || !apiPackage(p, pkg.Path()) {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if last.String() != "error" {
		return "", false
	}
	return qualifiedName(fn), true
}

func apiPackage(p *Package, pkgPath string) bool {
	mod := p.Module.Path
	switch pkgPath {
	case mod, mod + "/internal/core", mod + "/internal/remote":
		return true
	}
	return false
}

func qualifiedName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type().String()
		if i := strings.LastIndexAny(t, "./"); i >= 0 {
			t = t[i+1:]
		}
		return strings.TrimPrefix(t, "*") + "." + fn.Name()
	}
	return fn.Name()
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "expression"
}
