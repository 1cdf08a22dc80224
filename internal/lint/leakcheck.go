package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"godiva/internal/lint/callgraph"
)

// leakcheck requires every goroutine launch site whose body loops forever
// to have a reachable shutdown path. Accepted evidence, gathered module-
// wide:
//
//   - WaitGroup join: the body calls Done on a WaitGroup that some module
//     function Waits on (the prefetch worker pool, godivad's accept and
//     connection handlers);
//   - stop channel: the body receives from (or ranges over) a channel that
//     some module function closes (platform.Load's competing process);
//   - context cancel: the body receives from ctx.Done().
//
// Bodies with no infinite loop terminate on their own and need no
// evidence. Channels and WaitGroups held in struct fields are matched by
// owning-type + field name; locals by object identity.
var leakcheckAnalyzer = &analyzer{
	name: "leakcheck",
	doc:  "goroutine launch sites without a reachable shutdown path",
	run:  runLeakcheck,
}

// leakEvidence is the module-wide shutdown evidence index.
type leakEvidence struct {
	closedClasses map[string]bool       // field channels closed somewhere
	closedObjs    map[types.Object]bool // local channels closed somewhere
	waitClasses   map[string]bool       // WaitGroup fields Waited on
	waitObjs      map[types.Object]bool // local WaitGroups Waited on
}

func runLeakcheck(mc *moduleContext) []Finding {
	ev := &leakEvidence{
		closedClasses: make(map[string]bool),
		closedObjs:    make(map[types.Object]bool),
		waitClasses:   make(map[string]bool),
		waitObjs:      make(map[types.Object]bool),
	}
	type launch struct {
		pos  token.Pos
		body *ast.BlockStmt
		info *types.Info
		fset *token.FileSet
	}
	var launches []launch

	cgpkgs := make([]*callgraph.Package, 0, len(mc.CG))
	for _, cp := range mc.CG {
		cgpkgs = append(cgpkgs, cp)
	}
	sort.Slice(cgpkgs, func(i, j int) bool { return cgpkgs[i].PkgPath < cgpkgs[j].PkgPath })

	fset := fsetOf(mc)
	if fset == nil {
		return nil
	}

	// Pass 1: index evidence and collect launch sites.
	for _, cp := range cgpkgs {
		info := cp.Info
		for _, f := range cp.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					fun := ast.Unparen(n.Fun)
					if id, ok := fun.(*ast.Ident); ok && len(n.Args) == 1 {
						if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
							noteTarget(info, n.Args[0], ev.closedClasses, ev.closedObjs)
						}
					}
					if sel, ok := fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
						if tv, ok := info.Types[sel.X]; ok &&
							types.TypeString(derefType(tv.Type), nil) == "sync.WaitGroup" {
							noteTarget(info, sel.X, ev.waitClasses, ev.waitObjs)
						}
					}
				case *ast.GoStmt:
					body, binfo := launchBody(mc, info, n)
					if body != nil {
						launches = append(launches, launch{pos: n.Pos(), body: body, info: binfo, fset: fset})
					}
				}
				return true
			})
		}
	}

	// Pass 2: judge each launch.
	var findings []Finding
	for _, l := range launches {
		if !loopsForever(l.body) {
			continue
		}
		if hasShutdownEvidence(l.body, l.info, ev) {
			continue
		}
		findings = append(findings, Finding{
			Pos:      l.fset.Position(l.pos),
			Analyzer: "leakcheck",
			Message: "goroutine has no reachable shutdown path " +
				"(no stop-channel close, context cancel, or WaitGroup join)",
		})
	}
	return findings
}

func fsetOf(mc *moduleContext) *token.FileSet {
	for _, p := range mc.Pkgs {
		if p.Fset != nil {
			return p.Fset
		}
	}
	return nil
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// noteTarget records a close/Wait target: struct fields by owning named
// type + field, locals and package vars by object identity.
func noteTarget(info *types.Info, e ast.Expr, classes map[string]bool, objs map[types.Object]bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if tv, ok := info.Types[e.X]; ok {
			if named, ok := derefType(tv.Type).(*types.Named); ok {
				classes[named.String()+"."+e.Sel.Name] = true
				return
			}
		}
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			objs[obj] = true
		}
	case *ast.IndexExpr:
		// close(s.conns[i]): every element of the field shares the
		// class.
		noteTarget(info, e.X, classes, objs)
	}
}

// launchBody resolves a go statement to the body it runs: a literal's body
// directly, a named module function's declaration body through the graph.
// Unresolvable launches (func values) return nil and are not judged.
func launchBody(mc *moduleContext, info *types.Info, g *ast.GoStmt) (*ast.BlockStmt, *types.Info) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body, info
	}
	res := mc.Graph.Resolve(info, g.Call)
	if res.Static != nil && res.Static.Decl.Body != nil {
		return res.Static.Decl.Body, res.Static.Pkg.Info
	}
	return nil, nil
}

// loopsForever reports whether the body contains a loop with no condition
// (for {}) or a range over a channel — the shapes of a worker loop that
// only a shutdown signal can end.
func loopsForever(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Cond == nil {
				found = true
			}
		case *ast.FuncLit:
			return false // nested literals run on their own terms
		}
		return !found
	})
	return found
}

// hasShutdownEvidence scans the body for a receive/range/select on a
// channel the module closes, a ctx.Done() receive, or a Done call on a
// WaitGroup the module joins.
func hasShutdownEvidence(body *ast.BlockStmt, info *types.Info, ev *leakEvidence) bool {
	if info == nil {
		return false
	}
	found := false
	matches := func(e ast.Expr, classes map[string]bool, objs map[types.Object]bool) bool {
		e = ast.Unparen(e)
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if tv, ok := info.Types[e.X]; ok {
				if named, ok := derefType(tv.Type).(*types.Named); ok {
					return classes[named.String()+"."+e.Sel.Name]
				}
			}
		case *ast.Ident:
			if obj := info.ObjectOf(e); obj != nil {
				return objs[obj]
			}
		case *ast.CallExpr:
			// <-ctx.Done(): a context cancel path.
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if tv, ok := info.Types[sel.X]; ok &&
					types.TypeString(tv.Type, nil) == "context.Context" {
					return true
				}
			}
		}
		return false
	}
	recvEvidence := func(ch ast.Expr) bool {
		return matches(ch, ev.closedClasses, ev.closedObjs)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && recvEvidence(n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && recvEvidence(n.X) {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if tv, ok := info.Types[sel.X]; ok &&
					types.TypeString(derefType(tv.Type), nil) == "sync.WaitGroup" &&
					matches(sel.X, ev.waitClasses, ev.waitObjs) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
