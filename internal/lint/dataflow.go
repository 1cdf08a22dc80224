package lint

// dataflow.go is the forward abstract-interpretation driver every
// path-following analyzer shares: lockcheck, deadlockcheck, releasecheck,
// borrowcheck and wirecheck. Each supplies an abstract state
// (clone/merge/equal) and a transfer relation over the atomic nodes cfg.go
// produces; the driver iterates block in-states to a fixpoint with a
// worklist, then replays one recording pass in which the analyzer reports
// findings. Interprocedural facts (per-function summaries over the CHA
// call graph) are the analyzers' own business: each runs module passes
// until its summary table stops changing.

import (
	"go/ast"
	"go/types"

	"godiva/internal/lint/callgraph"
)

// dfState is one analyzer's abstract state at a program point.
type dfState interface {
	clone() dfState
	merge(other dfState) // in-place join with another path's state
	equal(other dfState) bool
}

// dfProblem is one analyzer's transfer relation over a single function
// body. transfer mutates st in place; refine applies a branch condition on
// an outgoing edge (cond evaluated to !negate on this edge); atExit is
// called once per edge into the normal exit block (ret is nil for fall-off
// the end), after the block's nodes have been transferred.
type dfProblem interface {
	transfer(n ast.Node, st dfState, record bool)
	refine(cond ast.Expr, negate bool, st dfState)
	atExit(st dfState, ret *ast.ReturnStmt, record bool)
}

// runDataflow drives p over g from the given entry state: worklist
// iteration to fixpoint, then one sweep in deterministic block order during
// which atExit fires for every edge into the normal exit (so problems can
// fold exit states into summaries on every module pass) and, when record is
// set, transfer may emit findings. Transfers during the fixpoint always see
// record false, so a problem that passes true gets exactly one recording
// visit per reachable node (lockcheck and deadlockcheck pass true;
// deadlockcheck keeps its own flag for whether to report). The pop budget
// guards against a non-monotone transfer bug turning into an infinite loop;
// lattices here are finite, so hitting it means a defect, and bailing out
// merely under-reports.
func runDataflow(g *funcCFG, entry dfState, p dfProblem, record bool) {
	in := make([]dfState, len(g.blocks))
	in[g.entry.index] = entry
	work := []*cfgBlock{g.entry}
	queued := make([]bool, len(g.blocks))
	queued[g.entry.index] = true
	budget := 64 + 32*len(g.blocks)
	for len(work) > 0 && budget > 0 {
		budget--
		blk := work[0]
		work = work[1:]
		queued[blk.index] = false
		st := in[blk.index].clone()
		for _, n := range blk.nodes {
			p.transfer(n, st, false)
		}
		for _, e := range blk.succs {
			if e.to == g.exit || e.to == g.panicExit {
				continue
			}
			next := st.clone()
			if e.cond != nil {
				p.refine(e.cond, e.negate, next)
			}
			changed := false
			if in[e.to.index] == nil {
				in[e.to.index] = next
				changed = true
			} else {
				before := in[e.to.index].clone()
				in[e.to.index].merge(next)
				changed = !in[e.to.index].equal(before)
			}
			if changed && !queued[e.to.index] {
				work = append(work, e.to)
				queued[e.to.index] = true
			}
		}
	}
	// Deterministic sweep over every reachable block, in index order, for
	// exit facts and (when record is set) findings.
	for _, blk := range g.blocks {
		if in[blk.index] == nil || blk == g.exit || blk == g.panicExit {
			continue
		}
		st := in[blk.index].clone()
		for _, n := range blk.nodes {
			p.transfer(n, st, record)
		}
		for _, e := range blk.succs {
			if e.to != g.exit {
				continue
			}
			ret, _ := lastNode(blk).(*ast.ReturnStmt)
			p.atExit(st, ret, record)
		}
	}
}

func lastNode(blk *cfgBlock) ast.Node {
	if len(blk.nodes) == 0 {
		return nil
	}
	return blk.nodes[len(blk.nodes)-1]
}

// dfFuncs returns the module's functions in deterministic key order.
func dfFuncs(mc *moduleContext) []*callgraph.Func {
	keys := sortedKeys(mc.Graph.Funcs)
	out := make([]*callgraph.Func, 0, len(keys))
	for _, k := range keys {
		out = append(out, mc.Graph.Funcs[k])
	}
	return out
}

// cfgOf builds (and memoizes) the CFG for one function body.
func (mc *moduleContext) cfgOf(body *ast.BlockStmt) *funcCFG {
	if mc.cfgs == nil {
		mc.cfgs = make(map[*ast.BlockStmt]*funcCFG)
	}
	if g := mc.cfgs[body]; g != nil {
		return g
	}
	g := buildCFG(body)
	mc.cfgs[body] = g
	return g
}

// forEachCall invokes f on every call expression inside e, outermost
// first, without descending into function-literal bodies (literals are
// analyzed as their own functions).
func forEachCall(e ast.Expr, f func(*ast.CallExpr)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			f(call)
		}
		return true
	})
}

// nodeExprs returns the expressions a CFG node evaluates, for problems
// that only need to scan calls. Control-flow bodies never appear (cfg.go
// decomposed them); defer/go statements are excluded so problems can give
// them bespoke treatment.
func nodeExprs(n ast.Node) []ast.Expr {
	switch n := n.(type) {
	case ast.Expr:
		return []ast.Expr{n}
	case *ast.ExprStmt:
		return []ast.Expr{n.X}
	case *ast.AssignStmt:
		return append(append([]ast.Expr{}, n.Rhs...), n.Lhs...)
	case *ast.SendStmt:
		return []ast.Expr{n.Chan, n.Value}
	case *ast.IncDecStmt:
		return []ast.Expr{n.X}
	case *ast.ReturnStmt:
		return n.Results
	case *ast.RangeStmt:
		return []ast.Expr{n.X}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return nil
		}
		var out []ast.Expr
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				out = append(out, vs.Values...)
			}
		}
		return out
	}
	return nil
}

// rootIdent walks to the base identifier of a selector/index/slice/star/
// paren chain: fp.Data[i:] roots at fp. Returns nil for call results and
// other rootless expressions.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// identObj resolves an identifier to its object (use or def).
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if info == nil || id == nil {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// funcLits collects the function literals directly inside body, skipping
// nested literals (each is visited when its enclosing literal is
// analyzed). Deferred literals are included: their bodies still need
// their own intraprocedural pass.
func funcLits(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit)
			return false
		}
		return true
	})
	return out
}
