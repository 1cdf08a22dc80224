package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
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
		for _, e := range blk.succs {
			if !seen[e.to] {
				seen[e.to] = true
				work = append(work, e.to)
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
		for _, e := range blk.succs {
			if e.to == g.exit {
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
	// The condition block must have one positive and one negative edge
	// carrying the same expression.
	var pos, neg int
	for _, blk := range g.blocks {
		for _, e := range blk.succs {
			if e.cond == nil {
				continue
			}
			if e.negate {
				neg++
			} else {
				pos++
			}
		}
	}
	if pos != 1 || neg != 1 {
		t.Fatalf("if produced %d positive / %d negative conditional edges, want 1/1", pos, neg)
	}
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
		for _, e := range blk.succs {
			if e.to.index <= blk.index && e.to != g.exit && e.to != g.panicExit {
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
	// The RangeStmt node itself must appear in some block: releasecheck's
	// loop heuristics key on seeing the head with its body attached.
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
	// deadlockcheck reads the select's wait there, before any comm runs.
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
// if/else to check the driver hands each edge its own refined state.
type refineProbe struct {
	takenConds []string
}

func (p *refineProbe) transfer(n ast.Node, st dfState, record bool) {}
func (p *refineProbe) refine(cond ast.Expr, negate bool, st dfState) {
	name := "pos"
	if negate {
		name = "neg"
	}
	p.takenConds = append(p.takenConds, name)
}
func (p *refineProbe) atExit(st dfState, ret *ast.ReturnStmt, record bool) {}

type unitState struct{}

func (unitState) clone() dfState       { return unitState{} }
func (unitState) merge(dfState)        {}
func (unitState) equal(o dfState) bool { return true }

func TestCFGDriverRefinesBranches(t *testing.T) {
	g := parseBody(t, "x := 1\nif x > 0 {\nx = 2\n} else {\nx = 3\n}\n_ = x")
	p := &refineProbe{}
	runDataflow(g, unitState{}, p, false)
	got := strings.Join(p.takenConds, ",")
	if !strings.Contains(got, "pos") || !strings.Contains(got, "neg") {
		t.Fatalf("refine saw %q, want both a positive and a negative edge", got)
	}
}
