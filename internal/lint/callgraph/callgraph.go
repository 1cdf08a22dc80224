// Package callgraph builds a class-hierarchy-analysis (CHA) call graph over
// the type-checked packages of one module, using only the standard library
// (go/ast + go/types — no golang.org/x/tools). The interprocedural lint
// analyzer (alloccheck) uses it to propagate its may-allocate facts
// across calls.
//
// Functions are identified by normalized types.Func full names (generic
// methods are keyed by their Origin), which stay stable across the loader's
// two type-check passes: the import cache checks production files only,
// while the lint pass re-checks with in-package tests under the same import
// path, so object instances differ between passes but their full-name
// strings agree.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"
)

// File is one production source file contributing to the graph.
type File struct {
	Path string
	AST  *ast.File
}

// Package is one type-checked package contributing functions to the graph.
type Package struct {
	PkgPath string
	Files   []File
	Info    *types.Info
	Types   *types.Package
}

// Func is one declared function or method of the module.
type Func struct {
	Key  string // normalized types.Func full name
	Name string // short display name ("pkg.F" or "T.M")
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Graph is the module call graph: every declared function keyed by
// normalized full name, plus the CHA mapping from module-declared interface
// methods to their concrete implementations.
type Graph struct {
	Funcs map[string]*Func

	// impls maps an interface method key to the module methods that can be
	// dispatched to it (class hierarchy analysis over module-declared named
	// types).
	impls map[string][]*Func
}

// Key returns the graph key of a function object: its full name with
// generic instantiations normalized back to the declaration (Origin).
func Key(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	return fn.Origin().FullName()
}

// Build constructs the graph over the given packages. Packages whose
// type-check failed entirely (nil Info) are skipped.
func Build(pkgs []*Package) *Graph {
	g := &Graph{
		Funcs: make(map[string]*Func),
		impls: make(map[string][]*Func),
	}
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Func{
					Key:  Key(obj),
					Name: shortName(obj),
					Decl: fd,
					Pkg:  p,
				}
				g.Funcs[fn.Key] = fn
			}
		}
	}
	g.buildCHA(pkgs)
	return g
}

// shortName renders "pkgname.F" for functions and "T.M" for methods.
func shortName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// buildCHA maps every module-declared interface method onto the module
// methods of named types that implement the interface.
func (g *Graph) buildCHA(pkgs []*Package) {
	var ifaces []*types.Named
	var named []*types.Named
	for _, p := range pkgs {
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			nt, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(nt) {
				ifaces = append(ifaces, nt)
			} else {
				named = append(named, nt)
			}
		}
	}
	for _, it := range ifaces {
		iface, ok := it.Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, nt := range named {
			impl := nt.Obj().Type()
			ptr := types.NewPointer(impl)
			if !types.Implements(impl, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				im := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name())
				mf, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				if target := g.Funcs[Key(mf)]; target != nil {
					ik := Key(im)
					g.impls[ik] = append(g.impls[ik], target)
				}
			}
		}
	}
	for k := range g.impls {
		sort.Slice(g.impls[k], func(i, j int) bool {
			return g.impls[k][i].Key < g.impls[k][j].Key
		})
	}
}

// Resolution describes the possible targets of one call expression.
type Resolution struct {
	// Static is the module function called directly, when resolved.
	Static *Func
	// CHA holds the module implementations an interface-method call can
	// dispatch to (empty for non-interface calls or when no module type
	// implements the interface).
	CHA []*Func
	// Ext is the callee object when the target is declared outside the
	// graph (standard library, or a package not loaded); analyzers classify
	// it by package path and name.
	Ext *types.Func
	// Lit is the function literal being invoked immediately, if any;
	// analyzers inline its body at the call site.
	Lit *ast.FuncLit
	// Builtin names the builtin being called ("make", "append", ...).
	Builtin string
	// Conversion reports that the "call" is a type conversion.
	Conversion bool
	// Dynamic reports a call through a function value (or an otherwise
	// unresolvable callee): no static target is known.
	Dynamic bool
}

// Resolve classifies one call expression appearing in pkg. info must be the
// types.Info covering the file containing the call (for test files this may
// differ from pkg.Info).
func (g *Graph) Resolve(info *types.Info, call *ast.CallExpr) Resolution {
	if info == nil {
		return Resolution{Dynamic: true}
	}
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return Resolution{Conversion: true}
	}
	// An explicit instantiation, F[T](...), calls F: the graph keys every
	// instance by its Origin. Any other indexed callee is an element of a
	// variable (a slice or map of funcs), which still resolves as dynamic.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fn := fun.(type) {
	case *ast.FuncLit:
		return Resolution{Lit: fn}
	case *ast.Ident:
		return g.resolveObj(info.Uses[fn])
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			mf, ok := sel.Obj().(*types.Func)
			if !ok {
				return Resolution{Dynamic: true} // func-typed field
			}
			recv := sel.Recv()
			if types.IsInterface(recv) {
				return Resolution{CHA: g.impls[Key(mf)], Ext: mf}
			}
			return g.resolveObj(mf)
		}
		// Qualified identifier: pkg.F.
		return g.resolveObj(info.Uses[fn.Sel])
	}
	return Resolution{Dynamic: true}
}

// resolveObj maps a callee object to a resolution.
func (g *Graph) resolveObj(obj types.Object) Resolution {
	switch o := obj.(type) {
	case *types.Builtin:
		return Resolution{Builtin: o.Name()}
	case *types.Func:
		if f := g.Funcs[Key(o)]; f != nil {
			return Resolution{Static: f}
		}
		return Resolution{Ext: o}
	case *types.TypeName:
		return Resolution{Conversion: true}
	}
	return Resolution{Dynamic: true}
}
