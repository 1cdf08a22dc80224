package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// atomiccheck enforces hygiene around sync/atomic-typed struct fields (such
// as a shared buffer's refcount): a field of type atomic.Int64 & friends may
// only appear as the receiver of one of its atomic methods (Load, Store,
// Add, Swap, CompareAndSwap, ...). Anything else — a plain read, a plain write,
// passing the value — defeats the atomicity. Copying a struct value that
// contains atomic fields is flagged for the same reason (the copy tears and
// go vet's copylocks only covers locks); taking its address is fine.
// Test files are not analyzed.
var atomiccheckAnalyzer = &analyzer{
	name: "atomiccheck",
	doc:  "sync/atomic fields accessed without their atomic methods",
	run:  eachPackage(runAtomiccheck),
}

var atomicMethods = map[string]bool{
	"Load": true, "Store": true, "Add": true, "Swap": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

func runAtomiccheck(p *Package) []Finding {
	if p.Info == nil {
		return nil
	}
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{
			Pos:      p.Fset.Position(pos),
			Analyzer: "atomiccheck",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range p.Files {
		if f.Test {
			continue
		}
		info := p.InfoFor(f)
		if info == nil {
			continue
		}
		parents := buildParents(f.AST)
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			tv, ok := info.Types[sel]
			if !ok || tv.Type == nil || !tv.IsValue() {
				return true // type expressions (field decls, conversions) are not accesses
			}
			switch {
			case isAtomicType(tv.Type):
				if !atomicMethodReceiver(parents, sel) && !isAddressed(parents, sel) {
					report(sel.Sel.Pos(),
						"atomic field %q accessed without an atomic method (use Load/Store/Add/...)",
						sel.Sel.Name)
				}
			case hasAtomicFields(tv.Type) && tv.Addressable():
				// A selector producing a struct VALUE with atomic fields:
				// fine when only used as a path to a deeper selector or
				// when its address is taken, a tearing copy otherwise.
				if !isSelectorPath(parents, sel) && !isAddressed(parents, sel) {
					report(sel.Sel.Pos(),
						"copy of %q tears its sync/atomic counters (take a pointer instead)",
						sel.Sel.Name)
				}
			}
			return true
		})
	}
	return out
}

// buildParents maps every node to its syntactic parent.
func buildParents(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// atomicMethodReceiver reports whether sel is exactly the receiver of an
// atomic method call: parent is SelectorExpr choosing an atomic method,
// grandparent is the CallExpr invoking it.
func atomicMethodReceiver(parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	p, ok := parents[sel].(*ast.SelectorExpr)
	if !ok || p.X != sel || !atomicMethods[p.Sel.Name] {
		return false
	}
	call, ok := parents[p].(*ast.CallExpr)
	return ok && call.Fun == p
}

// isAddressed reports whether sel's value never leaves as a copy: &sel, or
// sel is just the path prefix of a deeper selector/method call.
func isAddressed(parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	switch p := parents[sel].(type) {
	case *ast.UnaryExpr:
		return p.Op == token.AND
	case *ast.ParenExpr:
		if pp, ok := parents[p].(*ast.UnaryExpr); ok {
			return pp.Op == token.AND
		}
	}
	return false
}

// isSelectorPath reports whether sel is only used to reach a deeper field
// or method (parent selector has sel as its X).
func isSelectorPath(parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	p, ok := parents[sel].(*ast.SelectorExpr)
	return ok && p.X == sel
}

// isAtomicType reports whether t is one of the sync/atomic value types.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// hasAtomicFields reports whether t is a named struct type with at least
// one direct sync/atomic-typed field.
func hasAtomicFields(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isAtomicType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}
