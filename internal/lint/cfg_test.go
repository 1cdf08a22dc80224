package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses src as the body of func f and returns its CFG.
func parseBody(t *testing.T, src string) *funcCFG {
	t.Helper()
	file := "package p\nfunc f() {\n" + src + "\n}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "t.go", file, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return buildCFG(f.Decls[0].(*ast.FuncDecl).Body)
}

// reach walks the graph from entry and returns every reachable block.
func reach(g *funcCFG) map[*cfgBlock]bool {
	seen := map[*cfgBlock]bool{g.entry: true}
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, to := range blk.succs {
			if !seen[to] {
				seen[to] = true
				work = append(work, to)
			}
		}
	}
	return seen
}

// pathsToExit counts distinct edge-level entries into the normal exit.
func pathsToExit(g *funcCFG) int {
	n := 0
	for _, blk := range g.blocks {
		if blk == g.exit {
			continue
		}
		for _, to := range blk.succs {
			if to == g.exit {
				n++
			}
		}
	}
	return n
}

func TestCFGStraightLine(t *testing.T) {
	g := parseBody(t, "x := 1\nx++\n_ = x")
	if got := pathsToExit(g); got != 1 {
		t.Fatalf("straight-line body has %d exit edges, want 1", got)
	}
	if !reach(g)[g.exit] {
		t.Fatal("exit unreachable")
	}
}

func TestCFGIfBranchConditions(t *testing.T) {
	g := parseBody(t, "x := 1\nif x > 0 {\nx = 2\n}\n_ = x")
	// The block that evaluates the condition must fan out twice: into the
	// then-arm and straight to the join.
	for blk := range reach(g) {
		for _, n := range blk.nodes {
			if _, ok := n.(*ast.BinaryExpr); !ok {
				continue
			}
			if len(blk.succs) != 2 {
				t.Fatalf("if condition block has %d successors, want 2", len(blk.succs))
			}
			return
		}
	}
	t.Fatal("if condition node missing from the graph")
}

func TestCFGEarlyReturnSplitsExits(t *testing.T) {
	g := parseBody(t, "x := 1\nif x > 0 {\nreturn\n}\n_ = x")
	if got := pathsToExit(g); got != 2 {
		t.Fatalf("early return yields %d exit edges, want 2", got)
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	g := parseBody(t, "for i := 0; i < 3; i++ {\n_ = i\n}")
	// Some block must have a successor with a lower (or equal) index: the
	// back edge to the loop condition.
	back := false
	for _, blk := range g.blocks {
		for _, to := range blk.succs {
			if to.index <= blk.index && to != g.exit && to != g.panicExit {
				back = true
			}
		}
	}
	if !back {
		t.Fatal("for loop produced no back edge")
	}
	if !reach(g)[g.exit] {
		t.Fatal("loop exit unreachable")
	}
}

func TestCFGPanicGoesToPanicExit(t *testing.T) {
	g := parseBody(t, `panic("boom")`)
	if pathsToExit(g) != 0 {
		t.Fatal("unconditional panic still reaches the normal exit")
	}
	if !reach(g)[g.panicExit] {
		t.Fatal("panic exit unreachable")
	}
}

func TestCFGRangeKeepsHeadNode(t *testing.T) {
	g := parseBody(t, "xs := []int{1}\nfor _, x := range xs {\n_ = x\n}")
	// The RangeStmt node itself must appear in some block: lockcheck
	// reads the ranged-over expression there.
	found := false
	for blk := range reach(g) {
		for _, n := range blk.nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("range head node missing from the graph")
	}
}

func TestCFGSelectKeepsHeadNode(t *testing.T) {
	g := parseBody(t, "ch := make(chan int)\nselect {\ncase v := <-ch:\n_ = v\ncase ch <- 1:\n}")
	// The SelectStmt node sits in the block that fans out to the clauses:
	// a problem sees the select's wait there, before any comm runs.
	for blk := range reach(g) {
		for _, n := range blk.nodes {
			if _, ok := n.(*ast.SelectStmt); !ok {
				continue
			}
			if len(blk.succs) != 2 {
				t.Fatalf("select head block has %d successors, want one per clause (2)", len(blk.succs))
			}
			return
		}
	}
	t.Fatal("select head node missing from the graph")
}

func TestCFGSwitchFanOut(t *testing.T) {
	g := parseBody(t, "x := 1\nswitch x {\ncase 1:\nx = 2\ncase 2:\nx = 3\ndefault:\nx = 4\n}\n_ = x")
	if !reach(g)[g.exit] {
		t.Fatal("switch exit unreachable")
	}
	// All three case bodies must be reachable: their assignments appear in
	// distinct reachable blocks.
	assigns := 0
	for blk := range reach(g) {
		for _, n := range blk.nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "x" && as.Tok == token.ASSIGN {
					assigns++
				}
			}
		}
	}
	if assigns != 3 {
		t.Fatalf("%d case-body assignments reachable, want 3", assigns)
	}
}

func TestCFGGotoResolves(t *testing.T) {
	g := parseBody(t, "x := 0\nloop:\nx++\nif x < 3 {\ngoto loop\n}")
	if !reach(g)[g.exit] {
		t.Fatal("goto loop never reaches the exit")
	}
}

// TestCFGDriverRefinesBranches runs a minimal dataflow problem over an
// if/else to check the driver hands each branch its own copy of the state
// and joins the two at the merge: the else arm never sees the then arm's
// write, and the `_ = x` after the merge sees both.
type branchProbe struct {
	leaked bool
	joined markState
}

// markState is the set of values assigned so far.
type markState map[string]bool

func (s markState) clone() dfState {
	c := markState{}
	for k := range s {
		c[k] = true
	}
	return c
}
func (s markState) merge(o dfState) {
	for k := range o.(markState) {
		s[k] = true
	}
}
func (s markState) equal(o dfState) bool {
	om := o.(markState)
	if len(s) != len(om) {
		return false
	}
	for k := range s {
		if !om[k] {
			return false
		}
	}
	return true
}

func (p *branchProbe) transfer(n ast.Node, st dfState, record bool) {
	as, ok := n.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN {
		return
	}
	lit, ok := as.Rhs[0].(*ast.BasicLit)
	if !ok {
		if record { // `_ = x`, the first node after the merge
			p.joined = st.clone().(markState)
		}
		return
	}
	v := lit.Value
	if record && v == "3" && st.(markState)["2"] {
		p.leaked = true
	}
	st.(markState)[v] = true
}

func TestCFGDriverRefinesBranches(t *testing.T) {
	g := parseBody(t, "x := 1\nif x > 0 {\nx = 2\n} else {\nx = 3\n}\n_ = x")
	p := &branchProbe{}
	runDataflow(g, markState{}, p, true)
	if p.leaked {
		t.Fatal("the else arm saw the then arm's assignment")
	}
	if !p.joined["2"] || !p.joined["3"] {
		t.Fatalf("state after the merge %v, want both arms' assignments joined", p.joined)
	}
}
