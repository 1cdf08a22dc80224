package lint

// dataflow.go is the forward abstract-interpretation driver for analyzers
// that follow a state along paths (lockcheck). An analyzer supplies an
// abstract state (clone/merge/equal) and a transfer relation over the
// atomic nodes cfg.go produces; the driver iterates block in-states to a
// fixpoint with a worklist, then replays one recording pass in which the
// analyzer reports findings.

import (
	"go/ast"
	"go/types"
)

// dfState is one analyzer's abstract state at a program point.
type dfState interface {
	clone() dfState
	merge(other dfState) // in-place join with another path's state
	equal(other dfState) bool
}

// dfProblem is one analyzer's transfer relation over a single function
// body. transfer mutates st in place.
type dfProblem interface {
	transfer(n ast.Node, st dfState, record bool)
}

// runDataflow drives p over g from the given entry state: worklist
// iteration to fixpoint, then one sweep in deterministic block order during
// which, when record is set, transfer may emit findings. Transfers during
// the fixpoint always see record false, so a problem that passes true gets
// exactly one recording visit per reachable node. The pop budget
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
		for _, to := range blk.succs {
			if to == g.exit || to == g.panicExit {
				continue
			}
			next := st.clone()
			changed := false
			if in[to.index] == nil {
				in[to.index] = next
				changed = true
			} else {
				before := in[to.index].clone()
				in[to.index].merge(next)
				changed = !in[to.index].equal(before)
			}
			if changed && !queued[to.index] {
				work = append(work, to)
				queued[to.index] = true
			}
		}
	}
	// Deterministic sweep over every reachable block, in index order, for
	// findings when record is set.
	for _, blk := range g.blocks {
		if in[blk.index] == nil || blk == g.exit || blk == g.panicExit {
			continue
		}
		st := in[blk.index].clone()
		for _, n := range blk.nodes {
			p.transfer(n, st, record)
		}
	}
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
