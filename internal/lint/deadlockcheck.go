package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"godiva/internal/lint/callgraph"
)

// deadlockcheck is the static face of the paper's §3.3 deadlock rule. It
// runs a held-lock dataflow problem over every function's control-flow
// graph (cfg.go, dataflow.go), propagates lock acquisitions and blocking
// operations interprocedurally through the call graph, and reports two
// kinds of hazard:
//
//   - lock-order cycles: the whole-program graph of "acquired B while
//     holding A" edges must be acyclic;
//   - blocking under a lock: any channel operation, select without default,
//     time.Sleep, WaitGroup/Cond wait, or file/network I/O reachable while
//     a mutex is held;
//   - a lock leaked to the caller: a function not named *Locked that can
//     return holding a lock class it did not hold on entry (a deleted
//     "defer mu.Unlock()", say).
//
// The repo's unlock-before-block idiom (reserveLocked, waitStateLocked,
// Close) is understood: every summarized operation carries the set of lock
// classes the callee releases before reaching it, and a caller's held lock
// only counts if it is not in that set. Calls through function values
// (read callbacks) are not resolved statically; the runtime invariant
// checker covers those paths.
var deadlockcheckAnalyzer = &analyzer{
	name: "deadlockcheck",
	doc:  "lock-order cycles, blocking calls reachable while a mutex is held, and locks held past return",
	run:  runDeadlockcheck,
}

// dlOp is one blocking operation reachable from a function: released holds
// the lock classes the function releases on every path before the
// operation, so callers discount them from their held sets.
type dlOp struct {
	desc     string
	pos      token.Pos
	released map[string]bool
}

// dlAcq is one lock acquisition reachable from a function.
type dlAcq struct {
	class    string
	pos      token.Pos
	released map[string]bool
}

// dlSummary is a function's interprocedural fact set. exitReleased holds
// the classes it releases on every path to return (endWaitLocked's
// db.mu), so a caller that defers it does not leak them.
type dlSummary struct {
	ops          map[string]dlOp  // keyed by desc + released signature
	acqs         map[string]dlAcq // keyed by class + released signature
	exitReleased map[string]bool
}

func newDLSummary() *dlSummary {
	return &dlSummary{ops: make(map[string]dlOp), acqs: make(map[string]dlAcq)}
}

func (s *dlSummary) size() int { return len(s.ops) + len(s.acqs) }

const dlSummaryCap = 48 // per-kind cap; keeps pathological fan-in bounded

func setSig(set map[string]bool) string {
	return strings.Join(sortedKeys(set), ",")
}

func (s *dlSummary) addOp(op dlOp) {
	if len(s.ops) >= dlSummaryCap {
		return
	}
	key := op.desc + "|" + setSig(op.released)
	if _, ok := s.ops[key]; !ok {
		s.ops[key] = op
	}
}

func (s *dlSummary) addAcq(a dlAcq) {
	if len(s.acqs) >= dlSummaryCap {
		return
	}
	key := a.class + "|" + setSig(a.released)
	if _, ok := s.acqs[key]; !ok {
		s.acqs[key] = a
	}
}

// dlEdge is one lock-order edge with its first witness position.
type dlEdge struct {
	from, to string
	pos      token.Pos
}

// dlChecker runs the whole analysis over one module context.
type dlChecker struct {
	mc        *moduleContext
	fset      *token.FileSet
	summaries map[string]*dlSummary
	display   map[string]string // class key -> short display name

	recording bool
	findings  []Finding
	reported  map[token.Pos]bool
	edges     map[string]map[string]token.Pos
}

func runDeadlockcheck(mc *moduleContext) []Finding {
	if len(mc.Pkgs) == 0 || mc.Pkgs[0].Fset == nil {
		return nil
	}
	c := &dlChecker{
		mc:        mc,
		fset:      mc.Pkgs[0].Fset,
		summaries: make(map[string]*dlSummary),
		display:   make(map[string]string),
		reported:  make(map[token.Pos]bool),
		edges:     make(map[string]map[string]token.Pos),
	}
	// Fixpoint: summaries only grow, so iterate until the total size is
	// stable (bounded by the per-function caps).
	for iter := 0; iter < 12; iter++ {
		before := c.totalSize()
		c.pass()
		if c.totalSize() == before {
			break
		}
	}
	c.recording = true
	c.pass()
	c.reportCycles()
	return c.findings
}

func (c *dlChecker) totalSize() int {
	n := 0
	for _, s := range c.summaries {
		n += s.size()
	}
	return n
}

// pass analyzes every function once, updating summaries (and, when
// recording, findings and edges).
func (c *dlChecker) pass() {
	for _, fn := range dfFuncs(c.mc) {
		c.analyze(fn)
	}
}

// dlLocks is the dataflow state: the classes held on some path to a point,
// the classes the function has released on every path and not acquired
// again (discounted from caller-held sets when this function's facts
// propagate), and the classes a deferred call registered on every path
// releases at return. Joins union held and intersect the other two: a wait
// is a hazard if any path reaches it holding a lock — the first iteration
// of a loop whose body drops the lock, say — but a caller may discount
// only what every path released, and a return is balanced only by what
// every path deferred.
type dlLocks struct {
	held     map[string]bool
	released map[string]bool
	deferred map[string]bool
}

func newDLLocks() *dlLocks {
	return &dlLocks{held: make(map[string]bool), released: make(map[string]bool), deferred: make(map[string]bool)}
}

func (st *dlLocks) clone() dfState {
	return &dlLocks{held: cloneSet(st.held), released: cloneSet(st.released), deferred: cloneSet(st.deferred)}
}

func (st *dlLocks) merge(other dfState) {
	o := other.(*dlLocks)
	for k := range o.held {
		st.held[k] = true
	}
	intersectSet(st.released, o.released)
	intersectSet(st.deferred, o.deferred)
}

func (st *dlLocks) equal(other dfState) bool {
	o := other.(*dlLocks)
	return equalSet(st.held, o.held) && equalSet(st.released, o.released) && equalSet(st.deferred, o.deferred)
}

// dlWalk is the dataflow problem for one function body. Transfers during
// the fixpoint only move the lock state; the recording sweep (rec) also
// adds summary entries, lock-order edges and findings.
type dlWalk struct {
	c    *dlChecker
	fn   *callgraph.Func
	info *types.Info
	sum  *dlSummary
	rec  bool

	// comms holds the communications of the select statements seen so
	// far: each is its select's wait, not a blocking operation of its own.
	comms map[ast.Node]bool
	// exit joins the states at the body's normal exits.
	exit *dlLocks
	// checkReturns marks the walk of a declared function's own body that
	// must not return holding a lock it took (every one not named *Locked).
	checkReturns bool
}

func (c *dlChecker) analyze(fn *callgraph.Func) {
	sum := c.summaries[fn.Key]
	if sum == nil {
		sum = newDLSummary()
		c.summaries[fn.Key] = sum
	}
	w := &dlWalk{c: c, fn: fn, info: fn.Pkg.Info, sum: sum, comms: make(map[ast.Node]bool),
		checkReturns: !strings.HasSuffix(fn.Decl.Name.Name, "Locked")}
	st := newDLLocks()
	// The *Locked/*RLocked suffix convention: the function is entered with
	// the receiver's mu held.
	if class, ok := lockedEntryClass(fn); ok {
		st.held[class] = true
		c.noteDisplay(class)
	}
	runDataflow(c.mc.cfgOf(fn.Decl.Body), st, w, true)
	sum.exitReleased = nil
	if w.exit != nil {
		sum.exitReleased = w.exit.released
	}
}

// literal runs a literal body that executes in place (invoked immediately
// or deferred) from state st into a walker sharing this function's
// summary, and returns the joined state at its normal exits (st itself
// when it has none).
func (w *dlWalk) literal(body *ast.BlockStmt, st *dlLocks) *dlLocks {
	lw := &dlWalk{c: w.c, fn: w.fn, info: w.info, sum: w.sum, comms: w.comms}
	runDataflow(w.c.mc.cfgOf(body), st.clone(), lw, w.rec)
	if lw.exit == nil {
		return st
	}
	return lw.exit
}

// detached walks a literal body that runs on another goroutine (or at an
// unknown later time) with a fresh lock state; facts found there do not
// enter the current function's summary, so only the recording pass needs
// it.
func (w *dlWalk) detached(body *ast.BlockStmt) {
	if !w.rec || !w.c.recording {
		return
	}
	iw := &dlWalk{c: w.c, fn: w.fn, info: w.info, sum: newDLSummary(), comms: w.comms}
	runDataflow(w.c.mc.cfgOf(body), newDLLocks(), iw, true)
}

func (w *dlWalk) atExit(stt dfState, ret *ast.ReturnStmt, record bool) {
	if st := stt.(*dlLocks); w.checkReturns && record && w.c.recording {
		pos := w.fn.Decl.Body.Rbrace
		if ret != nil {
			pos = ret.Pos()
		}
		for _, class := range sortedKeys(st.held) {
			if !st.deferred[class] {
				w.c.report(pos, fmt.Sprintf("returns holding %s, which %s did not hold on entry",
					w.c.shortClass(class), w.fn.Name))
				break
			}
		}
	}
	if w.exit == nil {
		w.exit = stt.clone().(*dlLocks)
		return
	}
	w.exit.merge(stt)
}

func (w *dlWalk) transfer(n ast.Node, stt dfState, record bool) {
	st := stt.(*dlLocks)
	w.rec = record
	switch n := n.(type) {
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range n.Body.List {
			switch comm := cl.(*ast.CommClause).Comm.(type) {
			case nil:
				hasDefault = true
			case *ast.SendStmt:
				w.comms[comm] = true
			case *ast.ExprStmt:
				w.comms[ast.Unparen(comm.X)] = true
			case *ast.AssignStmt:
				w.comms[ast.Unparen(comm.Rhs[0])] = true
			}
		}
		if !hasDefault {
			w.blocking("select without default", n.Select, st)
		}
	case *ast.SendStmt:
		w.expr(n.Chan, st)
		w.expr(n.Value, st)
		if !w.comms[n] {
			w.blocking("channel send", n.Arrow, st)
		}
	case *ast.DeferStmt:
		w.deferCall(n.Call, st)
	case *ast.GoStmt:
		for _, a := range n.Call.Args {
			w.expr(a, st)
		}
		// The goroutine body runs on its own stack with no inherited locks.
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			w.detached(lit.Body)
		}
	case *ast.RangeStmt:
		w.expr(n.X, st)
		if tv, ok := w.info.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.blocking("range over channel", n.For, st)
			}
		}
	default:
		for _, e := range nodeExprs(n) {
			w.expr(e, st)
		}
	}
}

// lockedEntryClass maps a *Locked/*RLocked method to the lock class its
// caller must hold: the receiver type's mutex field.
func lockedEntryClass(fn *callgraph.Func) (string, bool) {
	name := fn.Decl.Name.Name
	if !strings.HasSuffix(name, "Locked") && !strings.HasSuffix(name, "RLocked") {
		return "", false
	}
	if fn.Decl.Recv == nil || len(fn.Decl.Recv.List) == 0 {
		return "", false
	}
	obj, ok := fn.Pkg.Info.Defs[fn.Decl.Name].(*types.Func)
	if !ok {
		return "", false
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	strct, ok := named.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	for i := 0; i < strct.NumFields(); i++ {
		f := strct.Field(i)
		if isMutexType(f.Type()) {
			return named.String() + "." + f.Name(), true
		}
	}
	return "", false
}

// expr walks an expression, dispatching nested calls, receives and literals.
func (w *dlWalk) expr(e ast.Expr, st *dlLocks) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		// Walk the receiver chain (a().b() and friends); literals and plain
		// identifiers are handled by call itself.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			w.expr(sel.X, st)
		}
		for _, a := range e.Args {
			w.expr(a, st)
		}
		w.call(e, st)
	case *ast.UnaryExpr:
		w.expr(e.X, st)
		if e.Op == token.ARROW && !w.comms[e] {
			w.blocking("channel receive", e.OpPos, st)
		}
	case *ast.FuncLit:
		// A stored literal runs at an unknown time; analyze with no locks.
		w.detached(e.Body)
	case *ast.ParenExpr:
		w.expr(e.X, st)
	case *ast.BinaryExpr:
		w.expr(e.X, st)
		w.expr(e.Y, st)
	case *ast.StarExpr:
		w.expr(e.X, st)
	case *ast.SelectorExpr:
		w.expr(e.X, st)
	case *ast.IndexExpr:
		w.expr(e.X, st)
		w.expr(e.Index, st)
	case *ast.IndexListExpr:
		w.expr(e.X, st)
	case *ast.SliceExpr:
		w.expr(e.X, st)
		w.expr(e.Low, st)
		w.expr(e.High, st)
		w.expr(e.Max, st)
	case *ast.TypeAssertExpr:
		w.expr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el, st)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Value, st)
	}
}

// deferCall handles a deferred call: deferred mutex ops do not change the
// current state (they run at return), a deferred literal is walked from
// the registration-point state, and any other deferred call is treated as
// a call at the registration point. Whatever the call releases on every
// path is owed no longer: the deferred set balances it at return.
func (w *dlWalk) deferCall(call *ast.CallExpr, st *dlLocks) {
	for _, a := range call.Args {
		w.expr(a, st)
	}
	if mu, op, ok := lockCall(w.info, call); ok {
		if class, ok := w.lockClass(mu); ok && op == lockRelease {
			st.deferred[class] = true
		}
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for class := range w.literal(lit.Body, st).released {
			if !st.released[class] {
				st.deferred[class] = true
			}
		}
		return
	}
	if res := w.c.mc.Graph.Resolve(w.info, call); res.Static != nil {
		if sum := w.c.summaries[res.Static.Key]; sum != nil {
			for class := range sum.exitReleased {
				st.deferred[class] = true
			}
		}
	}
	w.call(call, st)
}

// lockClass names the lock denoted by a mutex expression via the shared
// class scheme (lockset.go): struct fields by owning named type + field
// name (every instance shares one class — what lock-order analysis wants),
// package-level and local variables by their object.
func (w *dlWalk) lockClass(e ast.Expr) (string, bool) {
	class, display, ok := mutexClassOf(w.info, w.c.fset, e)
	if !ok {
		return "", false
	}
	w.c.display[class] = display
	return class, true
}

func (c *dlChecker) noteDisplay(class string) {
	if _, ok := c.display[class]; ok {
		return
	}
	short := class
	if i := strings.LastIndex(class, "/"); i >= 0 {
		short = class[i+1:]
	}
	if i := strings.Index(short, "."); i >= 0 {
		short = short[i+1:]
	}
	c.display[class] = short
}

func (c *dlChecker) shortClass(class string) string {
	if d, ok := c.display[class]; ok {
		return d
	}
	return class
}

// blocking records one blocking operation at the current state on the
// recording sweep: a summary entry always, a finding when a lock is held.
func (w *dlWalk) blocking(desc string, pos token.Pos, st *dlLocks) {
	if !w.rec {
		return
	}
	w.sum.addOp(dlOp{desc: desc, pos: pos, released: cloneSet(st.released)})
	if w.c.recording {
		for _, class := range sortedKeys(st.held) {
			w.c.report(pos, fmt.Sprintf("%s while holding %s", desc, w.c.shortClass(class)))
			break
		}
	}
}

// acquire applies a lock acquisition to the state and, on the recording
// sweep, records order edges from every held class and a summary entry.
func (w *dlWalk) acquire(class string, pos token.Pos, st *dlLocks) {
	if w.rec && w.c.recording {
		for _, held := range sortedKeys(st.held) {
			if held != class {
				w.c.addEdge(held, class, pos)
			}
		}
	}
	if w.rec {
		w.sum.addAcq(dlAcq{class: class, pos: pos, released: cloneSet(st.released)})
	}
	st.held[class] = true
	delete(st.released, class)
}

func (w *dlWalk) release(class string, st *dlLocks) {
	delete(st.held, class)
	st.released[class] = true
}

// call applies a call's effects: mutex transitions, inlined literals,
// summaries of module callees, and blocking classification of external
// callees.
func (w *dlWalk) call(call *ast.CallExpr, st *dlLocks) {
	if mu, op, ok := lockCall(w.info, call); ok {
		if class, ok := w.lockClass(mu); ok {
			if op == lockRelease {
				w.release(class, st)
			} else {
				w.acquire(class, call.Pos(), st)
			}
		}
		return
	}
	res := w.c.mc.Graph.Resolve(w.info, call)
	switch {
	case res.Lit != nil:
		// Immediately invoked literal: runs inline at the current state.
		*st = *w.literal(res.Lit.Body, st)
	case res.Static != nil:
		w.applySummary(res.Static, call, st)
	case len(res.CHA) > 0:
		for _, target := range res.CHA {
			w.applySummary(target, call, st)
		}
		if res.Ext != nil {
			w.applyExt(res.Ext, call, st)
		}
	case res.Ext != nil:
		w.applyExt(res.Ext, call, st)
	}
}

// applySummary folds a module callee's facts into the caller at a call
// site: its blocking operations fire against the caller's held set (minus
// what the callee releases first), and its acquisitions extend the caller's
// lock-order edges.
func (w *dlWalk) applySummary(callee *callgraph.Func, call *ast.CallExpr, st *dlLocks) {
	sum := w.c.summaries[callee.Key]
	if sum == nil || !w.rec {
		return
	}
	reportedHere := false
	for _, key := range sortedKeys(sum.ops) {
		op := sum.ops[key]
		merged := unionSet(st.released, op.released)
		w.sum.addOp(dlOp{desc: op.desc, pos: call.Pos(), released: merged})
		if w.c.recording && !reportedHere {
			for _, class := range sortedKeys(st.held) {
				if !op.released[class] {
					w.c.report(call.Pos(), fmt.Sprintf("call to %s may block (%s) while holding %s",
						callee.Name, op.desc, w.c.shortClass(class)))
					reportedHere = true
					break
				}
			}
		}
	}
	for _, key := range sortedKeys(sum.acqs) {
		acq := sum.acqs[key]
		merged := unionSet(st.released, acq.released)
		w.sum.addAcq(dlAcq{class: acq.class, pos: call.Pos(), released: merged})
		if w.c.recording {
			for _, held := range sortedKeys(st.held) {
				if held != acq.class && !acq.released[held] {
					w.c.addEdge(held, acq.class, call.Pos())
				}
			}
		}
	}
}

// applyExt classifies an external (standard-library) callee as blocking or
// not.
func (w *dlWalk) applyExt(fn *types.Func, call *ast.CallExpr, st *dlLocks) {
	desc, ok := blockingExt(fn)
	if !ok {
		return
	}
	w.blocking(desc, call.Pos(), st)
}

// blockingExt classifies standard-library callees that can block the
// calling goroutine: sleeps, waits, and file/network I/O. Close methods
// are deliberately not classified (closing a connection or file does not
// wait for peers).
func blockingExt(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	path, name := pkg.Path(), fn.Name()
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = types.TypeString(deref(sig.Recv().Type()), nil)
	}
	in := func(set ...string) bool {
		for _, s := range set {
			if s == name {
				return true
			}
		}
		return false
	}
	switch {
	case path == "time" && recv == "" && name == "Sleep":
		return "time.Sleep", true
	case recv == "sync.WaitGroup" && name == "Wait":
		return "sync.WaitGroup.Wait", true
	case recv == "sync.Cond" && name == "Wait":
		return "sync.Cond.Wait", true
	case path == "os" && recv == "" && in("Open", "OpenFile", "Create", "ReadFile", "WriteFile", "ReadDir", "Remove", "RemoveAll", "Rename", "Stat", "Mkdir", "MkdirAll"):
		return "file I/O (os." + name + ")", true
	case recv == "os.File" && in("Read", "ReadAt", "Write", "WriteAt", "WriteString", "ReadFrom", "WriteTo", "Seek", "Sync", "Truncate", "Stat"):
		return "file I/O (os.File." + name + ")", true
	case path == "net" && recv == "" && (strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen")):
		return "network I/O (net." + name + ")", true
	case path == "net" && recv != "" && in("Read", "Write", "Accept", "ReadFrom", "WriteTo"):
		return "network I/O (" + recv + "." + name + ")", true
	case path == "io" && recv == "" && in("ReadFull", "ReadAll", "ReadAtLeast", "Copy", "CopyN", "CopyBuffer", "WriteString"):
		return "I/O (io." + name + ")", true
	case path == "io" && recv != "" && in("Read", "Write", "ReadAt", "WriteAt"):
		return "I/O (" + recv + "." + name + ")", true
	case strings.HasPrefix(recv, "bufio.") && in("Read", "ReadByte", "ReadBytes", "ReadString", "ReadRune", "Write", "WriteByte", "WriteString", "WriteRune", "Flush", "Peek"):
		return "I/O (" + recv + "." + name + ")", true
	}
	return "", false
}

func (c *dlChecker) report(pos token.Pos, msg string) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.findings = append(c.findings, Finding{
		Pos:      c.fset.Position(pos),
		Analyzer: "deadlockcheck",
		Message:  msg,
	})
}

func (c *dlChecker) addEdge(from, to string, pos token.Pos) {
	tos := c.edges[from]
	if tos == nil {
		tos = make(map[string]token.Pos)
		c.edges[from] = tos
	}
	if _, ok := tos[to]; !ok {
		tos[to] = pos
	}
}

// reportCycles reports every lock-order edge that participates in a cycle,
// at the edge's witness position, with the full cycle path spelled out.
func (c *dlChecker) reportCycles() {
	for _, from := range sortedKeys(c.edges) {
		tos := c.edges[from]
		for _, to := range sortedKeys(tos) {
			if path := c.findPath(to, from); path != nil {
				cycle := append([]string{from}, path...)
				parts := make([]string, len(cycle))
				for i, cl := range cycle {
					parts[i] = c.shortClass(cl)
				}
				c.report(tos[to], fmt.Sprintf(
					"acquiring %s while holding %s completes a lock-order cycle: %s",
					c.shortClass(to), c.shortClass(from), strings.Join(parts, " -> ")))
			}
		}
	}
}

// findPath returns a path of classes from -> ... -> to along order edges,
// or nil.
func (c *dlChecker) findPath(from, to string) []string {
	seen := map[string]bool{from: true}
	var dfs func(cur string, path []string) []string
	dfs = func(cur string, path []string) []string {
		if cur == to {
			return append(path, cur)
		}
		for _, next := range sortedKeys(c.edges[cur]) {
			if seen[next] {
				continue
			}
			seen[next] = true
			if p := dfs(next, append(path, cur)); p != nil {
				return p
			}
		}
		return nil
	}
	return dfs(from, nil)
}

func cloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// intersectSet deletes from a every key b lacks.
func intersectSet(a, b map[string]bool) {
	for k := range a {
		if !b[k] {
			delete(a, k)
		}
	}
}

func equalSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func unionSet(a, b map[string]bool) map[string]bool {
	out := cloneSet(a)
	for k := range b {
		out[k] = true
	}
	return out
}
