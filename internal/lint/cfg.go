package lint

// cfg.go builds per-function control-flow graphs over go/ast, standard
// library only. Every analyzer that follows a state along paths —
// lockcheck, deadlockcheck, releasecheck, borrowcheck and wirecheck — runs
// forward abstract interpretation over these graphs (see dataflow.go), so
// it can distinguish "released on the happy path" from "released on every
// path", and a loop's state is its fixpoint rather than an assumption that
// the body is balanced.
//
// Shape: basic blocks hold a flat list of atomic nodes — assignments,
// expression statements, declarations, sends, inc/dec, returns, defers, go
// statements, range and select headers, and bare condition expressions.
// Control-flow statements (if/for/range/switch/type-switch/select) are
// decomposed into blocks and edges; their conditions are appended as
// expression nodes so transfer functions still see calls inside them. Edges
// out of a condition carry the condition expression and a negate flag,
// which lets analyzers refine state per branch (the "if err != nil" edge
// kills a pin that the error-returning acquire never produced).
//
// Two synthetic blocks terminate every graph: exit collects normal returns
// and fall-off, and panicExit collects calls that never return (panic,
// os.Exit, log.Fatal*, runtime.Goexit). Analyzers typically check their
// invariants only on edges into exit: a process that is dying does not leak
// pins in any way that matters.

import (
	"go/ast"
	"go/token"
)

// cfgEdge is one successor edge. When cond is non-nil the edge is taken
// exactly when cond evaluates to !negate.
type cfgEdge struct {
	to     *cfgBlock
	cond   ast.Expr
	negate bool
}

// cfgBlock is one basic block: nodes execute in order, then control moves
// along one of succs.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []cfgEdge
	done  bool // terminated by return/branch/terminating call
}

// funcCFG is the control-flow graph of one function or function-literal
// body.
type funcCFG struct {
	entry     *cfgBlock
	exit      *cfgBlock // normal exits: every return and the final fall-off
	panicExit *cfgBlock // panic/os.Exit/log.Fatal exits
	blocks    []*cfgBlock
}

type cfgBuilder struct {
	g   *funcCFG
	cur *cfgBlock

	breaks    []*cfgBlock // innermost-last break targets
	continues []*cfgBlock // innermost-last continue targets

	labelBreak map[string]*cfgBlock
	labelCont  map[string]*cfgBlock
	gotoTarget map[string]*cfgBlock
	gotoFixups map[string][]*cfgBlock // blocks awaiting a forward goto target
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{
		g:          g,
		labelBreak: make(map[string]*cfgBlock),
		labelCont:  make(map[string]*cfgBlock),
		gotoTarget: make(map[string]*cfgBlock),
		gotoFixups: make(map[string][]*cfgBlock),
	}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	g.panicExit = b.newBlock()
	g.exit.done = true
	g.panicExit.done = true
	b.cur = g.entry
	b.stmtList(body.List)
	// Fall-off-the-end exit.
	b.jump(b.cur, g.exit, nil, false)
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// jump links from→to unless from already terminated.
func (b *cfgBuilder) jump(from, to *cfgBlock, cond ast.Expr, negate bool) {
	if from.done {
		return
	}
	from.succs = append(from.succs, cfgEdge{to: to, cond: cond, negate: negate})
}

// add appends an atomic node to the current block, starting a fresh
// (unreachable) block after a terminator so later statements still parse
// into the graph.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur.done {
		b.cur = b.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label is the enclosing label name when s is
// the body of a LabeledStmt (loops and switches register it as a
// break/continue target).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:

	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The labeled statement opens a new block so goto can target it.
		target := b.newBlock()
		b.jump(b.cur, target, nil, false)
		b.cur = target
		b.gotoTarget[s.Label.Name] = target
		for _, from := range b.gotoFixups[s.Label.Name] {
			from.done = false
			b.jump(from, target, nil, false)
			from.done = true
		}
		delete(b.gotoFixups, s.Label.Name)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		join := b.newBlock()
		thenBlk := b.newBlock()
		b.jump(condBlk, thenBlk, s.Cond, false)
		b.cur = thenBlk
		b.stmt(s.Body, "")
		b.jump(b.cur, join, nil, false)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.jump(condBlk, elseBlk, s.Cond, true)
			b.cur = elseBlk
			b.stmt(s.Else, "")
			b.jump(b.cur, join, nil, false)
		} else {
			b.jump(condBlk, join, s.Cond, true)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.jump(b.cur, head, nil, false)
		after := b.newBlock()
		cont := head
		var post *cfgBlock
		if s.Post != nil {
			post = b.newBlock()
			post.nodes = append(post.nodes, s.Post)
			b.jump(post, head, nil, false)
			cont = post
		}
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			condBlk := b.cur
			body := b.newBlock()
			b.jump(condBlk, body, s.Cond, false)
			b.jump(condBlk, after, s.Cond, true)
			b.cur = body
		} else {
			body := b.newBlock()
			b.jump(b.cur, body, nil, false)
			b.cur = body
		}
		b.pushLoop(after, cont, label)
		b.stmt(s.Body, "")
		b.popLoop(label)
		b.jump(b.cur, cont, nil, false)
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.jump(b.cur, head, nil, false)
		// The RangeStmt node itself represents the per-iteration key/value
		// binding; transfer functions handle it (X, Key, Value — never the
		// body, which lives in its own blocks).
		head.nodes = append(head.nodes, s)
		after := b.newBlock()
		body := b.newBlock()
		b.jump(head, body, nil, false)
		b.jump(head, after, nil, false)
		b.cur = body
		b.pushLoop(after, head, label)
		b.stmt(s.Body, "")
		b.popLoop(label)
		b.jump(b.cur, head, nil, false)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body, label, func(cc *ast.CaseClause) []ast.Expr { return cc.List })

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body, label, func(cc *ast.CaseClause) []ast.Expr { return nil })

	case *ast.SelectStmt:
		// The SelectStmt node itself stands for the select's wait in the
		// head block; transfer functions that care handle it (never the
		// clauses, which live in their own blocks) and the rest ignore it.
		b.add(s)
		head := b.cur
		after := b.newBlock()
		b.breaks = append(b.breaks, after)
		if label != "" {
			b.labelBreak[label] = after
		}
		for _, clause := range s.Body.List {
			comm := clause.(*ast.CommClause)
			blk := b.newBlock()
			b.jump(head, blk, nil, false)
			b.cur = blk
			if comm.Comm != nil {
				b.stmt(comm.Comm, "")
			}
			b.stmtList(comm.Body)
			b.jump(b.cur, after, nil, false)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		if len(s.Body.List) == 0 {
			// select{} blocks forever.
			head.done = true
		}
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cur, b.g.exit, nil, false)
		b.cur.done = true

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			target := b.branchTarget(s.Label, b.breaks, b.labelBreak)
			if target != nil {
				b.jump(b.cur, target, nil, false)
			}
			b.cur.done = true
		case token.CONTINUE:
			target := b.branchTarget(s.Label, b.continues, b.labelCont)
			if target != nil {
				b.jump(b.cur, target, nil, false)
			}
			b.cur.done = true
		case token.GOTO:
			name := s.Label.Name
			if target := b.gotoTarget[name]; target != nil {
				b.jump(b.cur, target, nil, false)
			} else {
				b.gotoFixups[name] = append(b.gotoFixups[name], b.cur)
			}
			b.cur.done = true
		case token.FALLTHROUGH:
			// Handled structurally by caseClauses; ignore here.
		}

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isTerminatingCall(call) {
			b.jump(b.cur, b.g.panicExit, nil, false)
			b.cur.done = true
		}

	default:
		// AssignStmt, DeclStmt, SendStmt, IncDecStmt, DeferStmt, GoStmt.
		b.add(s)
	}
}

// caseClauses lowers switch/type-switch bodies: one block per clause, all
// fed from the current block, with fallthrough chaining to the next clause
// and an implicit edge to the join when no default exists.
func (b *cfgBuilder) caseClauses(body *ast.BlockStmt, label string, conds func(*ast.CaseClause) []ast.Expr) {
	head := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, after)
	if label != "" {
		b.labelBreak[label] = after
	}
	var clauses []*ast.CaseClause
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blks := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blks[i] = b.newBlock()
		b.jump(head, blks[i], nil, false)
		if cc.List == nil {
			hasDefault = true
		}
		// Case expressions evaluate in the clause's block so calls inside
		// them reach the transfer functions.
		for _, e := range conds(cc) {
			blks[i].nodes = append(blks[i].nodes, e)
		}
	}
	if !hasDefault {
		b.jump(head, after, nil, false)
	}
	for i, cc := range clauses {
		b.cur = blks[i]
		list := cc.Body
		fellthrough := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				list = list[:n-1]
				fellthrough = true
			}
		}
		b.stmtList(list)
		if fellthrough && i+1 < len(blks) {
			b.jump(b.cur, blks[i+1], nil, false)
		} else {
			b.jump(b.cur, after, nil, false)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *cfgBuilder) pushLoop(brk, cont *cfgBlock, label string) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if label != "" {
		b.labelBreak[label] = brk
		b.labelCont[label] = cont
	}
}

func (b *cfgBuilder) popLoop(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	if label != "" {
		delete(b.labelBreak, label)
		delete(b.labelCont, label)
	}
}

func (b *cfgBuilder) branchTarget(label *ast.Ident, stack []*cfgBlock, byLabel map[string]*cfgBlock) *cfgBlock {
	if label != nil {
		return byLabel[label.Name]
	}
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// isTerminatingCall reports whether a call never returns: the panic
// builtin, os.Exit, runtime.Goexit and the log.Fatal family. The match is
// syntactic — good enough for the exempt-exit classification, where a
// false negative only means an extra (vacuously clean) exit path.
func isTerminatingCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name {
		case "os":
			return fun.Sel.Name == "Exit"
		case "runtime":
			return fun.Sel.Name == "Goexit"
		case "log":
			switch fun.Sel.Name {
			case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
				return true
			}
		}
	}
	return false
}
