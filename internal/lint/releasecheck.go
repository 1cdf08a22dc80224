package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"godiva/internal/lint/callgraph"
)

// releasecheck proves the must-release discipline: every pin — a
// WaitUnit/ReadUnit unit pin, a *FilePayload (frame-arena ref) from
// FetchFile/FetchFiles — is released on *every* path to a return, not just
// somewhere in the function. It runs forward abstract interpretation over
// the per-function CFGs (cfg.go) with branch refinement:
//
//   - "if err != nil { return err }" after an error-returning acquire does
//     not leak: on the error edge the pin was never produced;
//   - "if fp == nil { return }" likewise kills the pin on the nil edge;
//   - a deferred release (directly or anywhere inside a deferred function
//     literal) releases at every exit reached after its registration;
//   - ownership transfer is not a leak: returning the pinned value,
//     storing it into a struct/global/channel, capturing it in a function
//     literal, or passing it to a callee without a known releasing summary
//     all stop tracking (hand-off code needs no lint:ignore);
//   - interprocedural summaries over the CHA call graph (computed to
//     fixpoint) follow a hand-off to where it ends: "releases parameter i
//     on every path", so passing a *FilePayload to a helper that always
//     Recycles it counts as a release; "borrows parameter i", so passing
//     a pin to a helper that neither releases nor keeps it leaves it with
//     the caller; and "returns a pin", so calling a function that returns
//     the pin it acquired is an acquire in the caller;
//   - exits through panic/os.Exit/log.Fatal are exempt.
//
// Known blind spots, by construction: pins are keyed by acquire site, so a
// loop that acquires N pins at one site is modeled as one (a partial
// release of "the site" looks complete); units are matched by name, as the
// text of a simple first argument (computed names match any release).
var releasecheckAnalyzer = &analyzer{
	name: "releasecheck",
	doc:  "pins released on every path to return, hand-offs followed through call summaries",
	run:  runReleasecheck,
}

// Pin kinds.
const (
	rcKindUnit = iota
	rcKindFetched
	rcKindCount
)

type rcKindSpec struct {
	acquire  []string
	release  []string
	wildcard []string // release-everything calls for this kind
	matchArg bool     // unit-style first-argument text matching
	recvType string   // acquire/release receiver type substring ("" = any)
	relRecv  string   // release receiver type substring when it differs
	valType  string   // pinned value's type substring ("" = keyed by name)
	what     string
	rels     string
}

var rcKinds = [rcKindCount]rcKindSpec{
	rcKindUnit: {
		acquire: []string{"WaitUnit", "ReadUnit"}, release: []string{"FinishUnit", "DeleteUnit"},
		wildcard: []string{"Close"}, matchArg: true, what: "unit", rels: "FinishUnit/DeleteUnit/Close",
	},
	rcKindFetched: {
		acquire: []string{"FetchFile", "FetchFiles"}, release: []string{"Recycle"},
		recvType: "Client", relRecv: "FilePayload", valType: "FilePayload", what: "fetched payload", rels: "Recycle (or a releasing hand-off)",
	},
}

// rcPin describes one acquire site (immutable once created).
type rcPin struct {
	kind    int
	acqName string
	site    token.Pos
	arg     string       // unit-style simple first-argument text
	obj     types.Object // bound pinned value, nil when unbound
	errObj  types.Object // error result refining the acquire
	param   int          // parameter index for synthetic summary pins, else -1
}

type rcStatus int8

const (
	rcReleased rcStatus = iota
	rcEscaped
	rcLive
)

// rcDeferRel is one release registered by a defer, applied at every exit.
type rcDeferRel struct {
	kind     int
	name     string
	wildcard bool
	arg      string
	obj      types.Object
}

// rcState is the abstract state: pins seen on this path with their status,
// plus deferred releases registered on this path (keyed by defer position;
// merged by intersection, since only a defer registered on every inbound
// path is guaranteed to run).
type rcState struct {
	pins   map[token.Pos]*rcPin
	status map[token.Pos]rcStatus
	defers map[token.Pos][]rcDeferRel
}

func newRCState() *rcState {
	return &rcState{
		pins:   make(map[token.Pos]*rcPin),
		status: make(map[token.Pos]rcStatus),
		defers: make(map[token.Pos][]rcDeferRel),
	}
}

func (st *rcState) clone() dfState {
	n := newRCState()
	for k, v := range st.pins {
		n.pins[k] = v
	}
	for k, v := range st.status {
		n.status[k] = v
	}
	for k, v := range st.defers {
		n.defers[k] = v
	}
	return n
}

func (st *rcState) merge(other dfState) {
	o := other.(*rcState)
	for k, v := range o.pins {
		if _, ok := st.pins[k]; !ok {
			st.pins[k] = v
			st.status[k] = o.status[k]
		} else if o.status[k] > st.status[k] {
			st.status[k] = o.status[k]
		}
	}
	for k := range st.defers {
		if _, ok := o.defers[k]; !ok {
			delete(st.defers, k)
		}
	}
}

func (st *rcState) equal(other dfState) bool {
	o := other.(*rcState)
	if len(st.pins) != len(o.pins) || len(st.status) != len(o.status) || len(st.defers) != len(o.defers) {
		return false
	}
	for k := range st.pins {
		if _, ok := o.pins[k]; !ok {
			return false
		}
		if st.status[k] != o.status[k] {
			return false
		}
	}
	for k := range st.defers {
		if _, ok := o.defers[k]; !ok {
			return false
		}
	}
	return true
}

func (st *rcState) kill(site token.Pos) {
	delete(st.pins, site)
	delete(st.status, site)
}

type rcChecker struct {
	mc       *moduleContext
	fset     *token.FileSet
	findings []Finding
	reported map[token.Pos]bool

	// summaries maps a call-graph key and a parameter index to what the
	// function does with that parameter on every path: rcReleased, or
	// rcLive when it only borrows it (neither releases nor keeps it).
	// returns maps a key to the kind of pin the function hands its caller
	// by return. Both grow monotonically to fixpoint.
	summaries map[string]map[int]rcStatus
	returns   map[string]int
}

func runReleasecheck(mc *moduleContext) []Finding {
	if len(mc.Pkgs) == 0 || mc.Pkgs[0].Fset == nil || mc.Graph == nil {
		return nil
	}
	c := &rcChecker{
		mc:        mc,
		fset:      mc.Pkgs[0].Fset,
		reported:  make(map[token.Pos]bool),
		summaries: make(map[string]map[int]rcStatus),
		returns:   make(map[string]int),
	}
	for iter := 0; iter < 10; iter++ {
		before := c.summarySize()
		c.pass(false)
		if c.summarySize() == before {
			break
		}
	}
	c.pass(true)
	return c.findings
}

func (c *rcChecker) summarySize() int {
	n := len(c.returns)
	for _, m := range c.summaries {
		n += len(m)
	}
	return n
}

func (c *rcChecker) pass(record bool) {
	for _, fn := range dfFuncs(c.mc) {
		c.analyze(fn, record)
	}
}

func (c *rcChecker) analyze(fn *callgraph.Func, record bool) {
	info := fn.Pkg.Info
	if info == nil || fn.Decl.Body == nil {
		return
	}
	w := &rcWalk{
		c:       c,
		info:    info,
		record:  record,
		aliases: make(map[types.Object]types.Object),
		fnKey:   fn.Key,
	}
	entry := newRCState()
	// Synthetic pins for parameters that can carry a pin feed the
	// per-parameter summaries.
	var params []*types.Var
	if sig, ok := info.Defs[fn.Decl.Name].(*types.Func); ok {
		s := sig.Type().(*types.Signature)
		for i := 0; i < s.Params().Len(); i++ {
			params = append(params, s.Params().At(i))
		}
	}
	for i, p := range params {
		for kind, spec := range rcKinds {
			if spec.valType == "" || p.Type() == nil || !strings.Contains(p.Type().String(), spec.valType) {
				continue
			}
			pin := &rcPin{kind: kind, acqName: "parameter", site: p.Pos(), obj: p, param: i}
			entry.pins[pin.site] = pin
			entry.status[pin.site] = rcLive
		}
	}
	w.paramExits = make(map[int]uint8)
	runDataflow(c.mc.cfgOf(fn.Decl.Body), entry, w, record)
	// Fold exit facts into the summary: a claim about a parameter needs
	// every normal exit to agree on it (no exits: no claim).
	for i, exits := range w.paramExits {
		for _, st := range []rcStatus{rcReleased, rcLive} {
			if exits == 1<<st {
				if c.summaries[fn.Key] == nil {
					c.summaries[fn.Key] = make(map[int]rcStatus)
				}
				c.summaries[fn.Key][i] = st
			}
		}
	}
	// Function literals get their own intraprocedural pass (goroutine
	// bodies, deferred cleanups, stored callbacks).
	for _, lit := range funcLits(fn.Decl.Body) {
		lw := &rcWalk{c: c, info: info, record: record, aliases: make(map[types.Object]types.Object)}
		runDataflow(c.mc.cfgOf(lit.Body), newRCState(), lw, record)
	}
}

// rcWalk adapts one function's analysis to the dataflow driver.
type rcWalk struct {
	c       *rcChecker
	info    *types.Info
	record  bool
	aliases map[types.Object]types.Object // range/copy alias → pinned obj
	fnKey   string                        // declared function under analysis ("" in a literal)

	// paramExits collects, per synthetic parameter pin, the set of
	// statuses (as 1<<status bits) it reached the normal exits with.
	paramExits map[int]uint8
}

func (w *rcWalk) transfer(n ast.Node, st dfState, record bool) {
	s := st.(*rcState)
	switch n := n.(type) {
	case *ast.AssignStmt:
		w.assign(n, s)
	case *ast.DeferStmt:
		w.deferStmt(n, s)
	case *ast.GoStmt:
		// The goroutine may release later; treat every captured pin as
		// handed off. Its body is analyzed separately.
		w.escapeCaptured(n.Call, s)
	case *ast.SendStmt:
		w.scan(n.Chan, s, nil, false)
		w.scan(n.Value, s, nil, false)
		if pin := w.pinFor(s, n.Value); pin != nil {
			s.status[pin.site] = rcEscaped // the receiver owns it now
		}
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			w.scan(res, s, nil, true)
		}
		for _, res := range n.Results {
			// Returning an element or subslice of a pinned slice (the
			// FetchFile-over-FetchFiles shape) hands off like returning
			// the slice itself.
		unwrap:
			for {
				switch x := ast.Unparen(res).(type) {
				case *ast.IndexExpr:
					res = x.X
				case *ast.SliceExpr:
					res = x.X
				default:
					break unwrap
				}
			}
			pin := w.pinFor(s, res)
			if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && s.status[call.Pos()] == rcEscaped {
				pin = s.pins[call.Pos()] // an acquire returned as it is made
			}
			if pin != nil {
				s.status[pin.site] = rcEscaped
				if pin.param < 0 && w.fnKey != "" {
					w.c.returns[w.fnKey] = pin.kind
				}
			}
		}
	case *ast.RangeStmt:
		w.scan(n.X, s, nil, false)
		// Ranging over a pinned slice aliases the value variable to the
		// pin, so fp.Recycle() inside the body releases it. A body that
		// releases the element releases the pin at the range itself: the
		// zero-iteration path has nothing left to release either.
		if base := rootIdent(n.X); base != nil {
			if pin := w.pinForObj(s, identObj(w.info, base)); pin != nil {
				if v, ok := n.Value.(*ast.Ident); ok {
					if obj := identObj(w.info, v); obj != nil {
						w.aliases[obj] = pin.obj
						if w.bodyReleases(n.Body, obj) {
							s.status[pin.site] = rcReleased
						}
					}
				}
			}
		}
		// More generally, release loops ("for f := range files {
		// DeleteUnit(name(f)) }") are credited at the range head: the
		// analysis does not correlate trip counts across loops, so the
		// zero-iteration path would otherwise report pins a sibling
		// acquire loop also never created.
		w.applyBodyReleases(n.Body, s)
	default:
		for _, e := range nodeExprs(n) {
			w.scan(e, s, nil, false)
		}
	}
}

// assign handles acquisition binding, aliasing and store-escapes, then
// scans the right-hand sides for nested calls.
func (w *rcWalk) assign(n *ast.AssignStmt, s *rcState) {
	var bound *ast.CallExpr
	if len(n.Rhs) == 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			if kind, role, ok := w.classify(call); ok && role == rcRoleAcquire {
				bound = call
				w.acquire(kind, call, n.Lhs, s, false)
			}
		}
	}
	for _, rhs := range n.Rhs {
		w.scan(rhs, s, bound, false)
	}
	// Reassigning an acquire's error variable severs the pin's error
	// refinement: a later `err != nil` branch speaks about the new value,
	// not about whether the acquire succeeded, so it must no longer kill
	// the pin (copy-on-write — pin structs are shared across states).
	for _, l := range n.Lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := identObj(w.info, id)
		if obj == nil {
			continue
		}
		for site, pin := range s.pins {
			if pin.errObj != obj || (bound != nil && site == bound.Pos()) {
				continue
			}
			np := *pin
			np.errObj = nil
			s.pins[site] = &np
		}
	}
	// Whole-pin right-hand sides: a plain local rebind aliases, anything
	// else is a store that transfers ownership.
	for i, rhs := range n.Rhs {
		if len(n.Lhs) != len(n.Rhs) {
			break
		}
		id, ok := ast.Unparen(rhs).(*ast.Ident)
		if !ok {
			continue
		}
		pin := w.pinForObj(s, identObj(w.info, id))
		if pin == nil {
			continue
		}
		if lhs, ok := n.Lhs[i].(*ast.Ident); ok {
			if obj := identObj(w.info, lhs); obj != nil && obj.Parent() != nil && obj.Pkg() != nil && !isPkgLevel(obj) {
				w.aliases[obj] = pin.obj
				continue
			}
		}
		s.status[pin.site] = rcEscaped
	}
}

func isPkgLevel(obj types.Object) bool {
	return obj.Parent() == obj.Pkg().Scope()
}

func (w *rcWalk) deferStmt(n *ast.DeferStmt, s *rcState) {
	var rels []rcDeferRel
	collect := func(call *ast.CallExpr) {
		kind, role, ok := w.classify(call)
		if ok && (role == rcRoleRelease || role == rcRoleWildcard) {
			name, recv, _ := methodCall(call)
			rel := rcDeferRel{kind: kind, name: name}
			switch role {
			case rcRoleWildcard:
				rel.wildcard = true
			case rcRoleRelease:
				if rcKinds[kind].matchArg {
					rel.arg = simpleArg(call)
				}
				rel.obj = w.releaseTargetObj(name, recv)
			}
			rels = append(rels, rel)
			return
		}
		// Deferred hand-off to a callee that releases its parameter.
		w.summaryReleases(call, func(obj types.Object) {
			rels = append(rels, rcDeferRel{kind: rcKindFetched, obj: obj})
		})
	}
	if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
		// Releases anywhere inside a deferred literal count, conditions
		// included: the "if done == nil { release }" cleanup idiom is a
		// release on the paths where ownership was not handed off.
		ast.Inspect(lit.Body, func(nn ast.Node) bool {
			if call, ok := nn.(*ast.CallExpr); ok {
				collect(call)
			}
			return true
		})
	} else {
		collect(n.Call)
		for _, arg := range n.Call.Args {
			forEachCall(arg, collect)
		}
	}
	if len(rels) > 0 {
		s.defers[n.Pos()] = rels
	}
}

const (
	rcRoleAcquire = iota
	rcRoleRelease
	rcRoleWildcard
)

// classify maps a call to a (pin kind, role): a method of the rcKinds
// table, or a module function whose summary says it returns a pin.
func (w *rcWalk) classify(call *ast.CallExpr) (kind, role int, ok bool) {
	name, recv, _ := methodCall(call)
	for k := range rcKinds {
		spec := &rcKinds[k]
		relRecv := spec.recvType
		if spec.relRecv != "" {
			relRecv = spec.relRecv
		}
		switch {
		case slices.Contains(spec.acquire, name) && recvMatches(w.info, recv, spec.recvType):
			return k, rcRoleAcquire, true
		case slices.Contains(spec.release, name) && recvMatches(w.info, recv, relRecv):
			return k, rcRoleRelease, true
		case slices.Contains(spec.wildcard, name) && recvMatches(w.info, recv, spec.recvType):
			return k, rcRoleWildcard, true
		}
	}
	if res := w.c.mc.Graph.Resolve(w.info, call); res.Static != nil {
		if kind, ok := w.c.returns[res.Static.Key]; ok {
			return kind, rcRoleAcquire, true
		}
	}
	return 0, 0, false
}

// acquire records a pin for an acquisition call, binding result variables
// when lhs is the assignment's left-hand side. escaped marks pins created
// directly in escaping position (return values).
func (w *rcWalk) acquire(kind int, call *ast.CallExpr, lhs []ast.Expr, s *rcState, escaped bool) {
	spec := &rcKinds[kind]
	pin := &rcPin{kind: kind, site: call.Pos(), param: -1}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		pin.acqName = fun.Sel.Name
	case *ast.Ident:
		pin.acqName = fun.Name
	}
	if spec.matchArg {
		pin.arg = simpleArg(call)
	}
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := identObj(w.info, id)
		if obj == nil {
			continue
		}
		if isErrorType(obj.Type()) {
			pin.errObj = obj
		} else if pin.obj == nil {
			pin.obj = obj
		}
	}
	s.pins[pin.site] = pin
	if escaped {
		s.status[pin.site] = rcEscaped
	} else {
		s.status[pin.site] = rcLive
	}
}

// scan walks an expression: classifies calls (acquire/release/summary
// hand-off), and escapes pins referenced from composite literals, function
// literals, unary &, and arguments to callees with no releasing summary.
// bound is an acquire call already handled by assign; inReturn marks
// direct return results.
func (w *rcWalk) scan(e ast.Expr, s *rcState, bound *ast.CallExpr, inReturn bool) {
	if e == nil {
		return
	}
	var stack []ast.Node
	ast.Inspect(e, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncLit:
			w.escapeLit(n, s)
			stack = stack[:len(stack)-1]
			return false
		case *ast.CallExpr:
			if n != bound {
				argPos := false
				if len(stack) >= 2 {
					if pc, ok := stack[len(stack)-2].(*ast.CallExpr); ok {
						for i, a := range pc.Args {
							if a == ast.Expr(n) {
								// A callee that only borrows leaves the
								// pin here.
								argPos = !w.calleeDoes(pc, i, rcLive)
								break
							}
						}
					}
				}
				w.call(n, s, inReturn || argPos)
			}
		case *ast.Ident:
			w.identUse(n, stack, s)
		}
		return true
	})
}

// call applies one call's effect on the pin state.
func (w *rcWalk) call(call *ast.CallExpr, s *rcState, escPos bool) {
	if kind, role, ok := w.classify(call); ok {
		switch role {
		case rcRoleAcquire:
			// An acquire whose value result flows straight into a return
			// or a call argument hands the pin off; an acquire returning
			// only an error (unit/reader style) cannot — the pin is keyed
			// by name, not carried by the result.
			w.acquire(kind, call, nil, s, escPos && w.callResultIsValue(call))
		case rcRoleRelease:
			name, recv, _ := methodCall(call)
			w.release(s, kind, name, call, recv)
		case rcRoleWildcard:
			w.wildcard(s, kind)
		}
		return
	}
	w.summaryReleases(call, func(obj types.Object) {
		if pin := w.pinForObj(s, obj); pin != nil {
			s.status[pin.site] = rcReleased
		}
	})
}

// callResultIsValue reports whether a call produces a non-error result.
func (w *rcWalk) callResultIsValue(call *ast.CallExpr) bool {
	tv, ok := w.info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if !isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return !isErrorType(tv.Type)
}

// calleeDoes reports whether the current summary table says call's callee
// leaves its parameter i in status st on every path.
func (w *rcWalk) calleeDoes(call *ast.CallExpr, i int, st rcStatus) bool {
	res := w.c.mc.Graph.Resolve(w.info, call)
	if res.Static == nil {
		return false
	}
	got, ok := w.c.summaries[res.Static.Key][i]
	return ok && got == st
}

// summaryReleases invokes f for each argument object the callee releases
// on all paths (per the current summary table).
func (w *rcWalk) summaryReleases(call *ast.CallExpr, f func(types.Object)) {
	for i, arg := range call.Args {
		if !w.calleeDoes(call, i, rcReleased) {
			continue
		}
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if obj := identObj(w.info, id); obj != nil {
				f(w.resolveAlias(obj))
			}
		}
	}
}

// release applies a matching release call.
func (w *rcWalk) release(s *rcState, kind int, name string, call *ast.CallExpr, recv ast.Expr) {
	spec := &rcKinds[kind]
	if spec.matchArg {
		relArg := simpleArg(call)
		for site, pin := range s.pins {
			if pin.kind != kind {
				continue
			}
			if pin.arg == "" || relArg == "" || pin.arg == relArg {
				s.status[site] = rcReleased
			}
		}
		return
	}
	target := w.releaseTargetObj(name, recv)
	if target != nil {
		if pin := w.pinForObj(s, target); pin != nil {
			s.status[pin.site] = rcReleased
			return
		}
	}
	// Unbound release (computed argument/receiver): releases any pin of
	// the kind.
	for site, pin := range s.pins {
		if pin.kind == kind {
			s.status[site] = rcReleased
		}
	}
}

// releaseTargetObj extracts the object a release call frees: the receiver
// of fp.Recycle(). Unit releases name their unit by argument text instead.
func (w *rcWalk) releaseTargetObj(name string, recv ast.Expr) types.Object {
	if name != "Recycle" {
		return nil
	}
	if id := rootIdent(recv); id != nil {
		return w.resolveAlias(identObj(w.info, id))
	}
	return nil
}

func (w *rcWalk) wildcard(s *rcState, kind int) {
	for site, pin := range s.pins {
		if pin.kind == kind {
			s.status[site] = rcReleased
		}
	}
}

// applyBodyReleases applies every release call appearing in a range body
// to the current state (acquires inside the body are left to the body's
// own blocks).
func (w *rcWalk) applyBodyReleases(body *ast.BlockStmt, s *rcState) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, role, ok := w.classify(call); ok {
			switch role {
			case rcRoleRelease:
				name, recv, _ := methodCall(call)
				w.release(s, kind, name, call, recv)
			case rcRoleWildcard:
				w.wildcard(s, kind)
			}
		}
		return true
	})
}

// bodyReleases reports whether a range body syntactically releases the
// element variable (or hands it to a summary-releasing callee).
func (w *rcWalk) bodyReleases(body *ast.BlockStmt, elem types.Object) bool {
	elem = w.resolveAlias(elem)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if _, role, ok := w.classify(call); ok && role == rcRoleRelease {
			name, recv, _ := methodCall(call)
			if w.releaseTargetObj(name, recv) == elem {
				found = true
			}
			return true
		}
		w.summaryReleases(call, func(obj types.Object) {
			if obj == elem {
				found = true
			}
		})
		return true
	})
	return found
}

// identUse escapes a pinned object used in an ownership-transferring
// position: composite literal element, channel send value, address-of, or
// argument to a call with no releasing summary.
func (w *rcWalk) identUse(id *ast.Ident, stack []ast.Node, s *rcState) {
	obj := identObj(w.info, id)
	if obj == nil {
		return
	}
	pin := w.pinForObj(s, obj)
	if pin == nil || s.status[pin.site] != rcLive {
		return
	}
	if len(stack) < 2 {
		return
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.CompositeLit:
		s.status[pin.site] = rcEscaped
	case *ast.KeyValueExpr:
		if parent.Value == id {
			s.status[pin.site] = rcEscaped
		}
	case *ast.UnaryExpr:
		if parent.Op == token.AND {
			s.status[pin.site] = rcEscaped
		}
	case *ast.CallExpr:
		for i, arg := range parent.Args {
			if arg != ast.Expr(id) {
				continue
			}
			// Release/summary-releasing callees were already credited in
			// call(), and a callee that only borrows changes nothing;
			// anything else takes ownership.
			if _, role, ok := w.classify(parent); ok && role != rcRoleAcquire {
				return
			}
			if w.calleeDoes(parent, i, rcLive) {
				return
			}
			releasedHere := false
			w.summaryReleases(parent, func(o types.Object) {
				if o == pin.obj {
					releasedHere = true
				}
			})
			if !releasedHere {
				s.status[pin.site] = rcEscaped
			}
		}
	}
}

// escapeLit escapes every pin captured by a (non-deferred) function
// literal.
func (w *rcWalk) escapeLit(lit *ast.FuncLit, s *rcState) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if pin := w.pinForObj(s, identObj(w.info, id)); pin != nil && s.status[pin.site] == rcLive {
			s.status[pin.site] = rcEscaped
		}
		return true
	})
}

// escapeCaptured escapes pins referenced anywhere in a go statement's call.
func (w *rcWalk) escapeCaptured(call *ast.CallExpr, s *rcState) {
	ast.Inspect(call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if pin := w.pinForObj(s, identObj(w.info, id)); pin != nil && s.status[pin.site] == rcLive {
			s.status[pin.site] = rcEscaped
		}
		return true
	})
}

func (w *rcWalk) resolveAlias(obj types.Object) types.Object {
	for i := 0; i < 8 && obj != nil; i++ {
		next, ok := w.aliases[obj]
		if !ok {
			return obj
		}
		obj = next
	}
	return obj
}

func (w *rcWalk) pinForObj(s *rcState, obj types.Object) *rcPin {
	if obj == nil {
		return nil
	}
	obj = w.resolveAlias(obj)
	for _, pin := range s.pins {
		if pin.obj != nil && pin.obj == obj {
			return pin
		}
	}
	return nil
}

func (w *rcWalk) pinFor(s *rcState, e ast.Expr) *rcPin {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return w.pinForObj(s, identObj(w.info, id))
}

// refine applies a branch condition: err != nil on the taken edge means
// the acquire failed (no pin); fp == nil on the taken edge means there is
// no payload (no pin).
func (w *rcWalk) refine(cond ast.Expr, negate bool, st dfState) {
	s := st.(*rcState)
	w.refineCond(cond, negate, s)
}

func (w *rcWalk) refineCond(cond ast.Expr, negate bool, s *rcState) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch be.Op {
	case token.LAND:
		if !negate {
			w.refineCond(be.X, false, s)
			w.refineCond(be.Y, false, s)
		}
		return
	case token.LOR:
		if negate {
			w.refineCond(be.X, true, s)
			w.refineCond(be.Y, true, s)
		}
		return
	case token.EQL, token.NEQ:
	default:
		return
	}
	id := nilComparison(be)
	if id == nil {
		return
	}
	// On this edge the comparison held iff !negate.
	objIsNil := (be.Op == token.EQL) == !negate
	obj := identObj(w.info, id)
	if obj == nil {
		return
	}
	for site, pin := range s.pins {
		if pin.errObj == obj && !objIsNil {
			// err != nil: the acquire never happened.
			s.kill(site)
		} else if pin.obj == obj && pin.errObj == nil && objIsNil && pin.param < 0 {
			// fp == nil: no payload, nothing pinned.
			s.kill(site)
		}
	}
}

// nilComparison decomposes "x == nil" / "x != nil" (either side) into the
// identifier compared against nil.
func nilComparison(be *ast.BinaryExpr) *ast.Ident {
	xid, xok := ast.Unparen(be.X).(*ast.Ident)
	yid, yok := ast.Unparen(be.Y).(*ast.Ident)
	if !xok || !yok {
		return nil
	}
	switch {
	case xid.Name == "nil" && yid.Name != "nil":
		return yid
	case yid.Name == "nil" && xid.Name != "nil":
		return xid
	}
	return nil
}

// atExit applies deferred releases, reports leaked pins, and accumulates
// the releases-parameter facts.
func (w *rcWalk) atExit(st dfState, ret *ast.ReturnStmt, record bool) {
	s := st.(*rcState).clone().(*rcState)
	// Deferred releases run at every exit after their registration.
	var dkeys []token.Pos
	for k := range s.defers {
		dkeys = append(dkeys, k)
	}
	sort.Slice(dkeys, func(i, j int) bool { return dkeys[i] < dkeys[j] })
	for _, k := range dkeys {
		for _, rel := range s.defers[k] {
			switch {
			case rel.wildcard:
				w.wildcard(s, rel.kind)
			case rel.obj != nil:
				if pin := w.pinForObj(s, rel.obj); pin != nil {
					s.status[pin.site] = rcReleased
				}
			default:
				w.releaseByArg(s, rel.kind, rel.arg)
			}
		}
	}
	for site, pin := range s.pins {
		if pin.param >= 0 {
			w.paramExits[pin.param] |= 1 << s.status[site]
		}
	}
	if !record {
		return
	}
	var sites []token.Pos
	for site := range s.pins {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, site := range sites {
		pin := s.pins[site]
		if pin.param >= 0 || s.status[site] != rcLive || w.c.reported[site] {
			continue
		}
		w.c.reported[site] = true
		spec := &rcKinds[pin.kind]
		where := "the end of the function"
		if ret != nil {
			where = fmt.Sprintf("the return at line %d", w.c.fset.Position(ret.Pos()).Line)
		}
		name := ""
		if pin.arg != "" {
			name = fmt.Sprintf(" %s", pin.arg)
		}
		w.c.findings = append(w.c.findings, Finding{
			Pos:      w.c.fset.Position(site),
			Analyzer: "releasecheck",
			Message: fmt.Sprintf("%s%s acquired with %s leaks on %s (no %s on this path)",
				spec.what, name, pin.acqName, where, spec.rels),
		})
	}
}

func (w *rcWalk) releaseByArg(s *rcState, kind int, arg string) {
	for site, pin := range s.pins {
		if pin.kind != kind {
			continue
		}
		if pin.arg == "" || arg == "" || pin.arg == arg {
			s.status[site] = rcReleased
		}
	}
}

// methodCall decomposes e into (method name, receiver expr) when it is a
// method-style call x.f(...).
func methodCall(e ast.Expr) (string, ast.Expr, *ast.CallExpr) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", nil, nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil, nil
	}
	return sel.Sel.Name, sel.X, call
}

// recvMatches reports whether the receiver expression's type (when known)
// contains the required substring. With no type info the name-based match
// stands alone, which is fine for the specific method-name sets used here.
func recvMatches(info *types.Info, recv ast.Expr, want string) bool {
	if want == "" {
		return true
	}
	if info == nil {
		return false
	}
	tv, ok := info.Types[recv]
	if !ok || tv.Type == nil {
		return false
	}
	return strings.Contains(tv.Type.String(), want)
}

// simpleArg renders a call's first argument when it is an identifier or
// basic literal; computed expressions return "".
func simpleArg(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	switch a := call.Args[0].(type) {
	case *ast.Ident:
		return a.Name
	case *ast.BasicLit:
		return a.Value
	}
	return ""
}
