package lint

// escape.go is racecheck's flow-sensitive shared-state walker, run over
// the dataflow driver (dataflow.go). For one unit (declared function or
// function literal) it tracks three facts through the CFG:
//
//   - held: the lock classes currently held (entry lockset + local
//     Lock/Unlock transitions), intersected at joins;
//   - owned: local objects that no other goroutine can reach — fresh
//     allocations (&T{}, new, make, a channel receive) and value-typed
//     locals/params (copies). Accesses through an owned root are private:
//     this is the pre-spawn-initialization exclusion. Ownership dies when
//     the object escapes: captured by a spawned literal, sent on a
//     channel, stored through a non-owned target, or address-taken
//     outside a call argument;
//   - shared: captured locals that a concurrently-running literal can
//     reach, activated flow-sensitively at the `go` statement (writes
//     before the spawn are init, writes after are shared). A blocking
//     join (WaitGroup.Wait or a channel receive) hands captured locals
//     back to the spawner — the approximated happens-before edge.
//
// Along the way it records every shared access with its held lockset, and
// every module-call invocation with the caller's held set and which
// pointer arguments are owned (so a helper that only ever receives fresh
// objects keeps the callee's accesses in the init exclusion).

import (
	"go/ast"
	"go/token"
	"go/types"

	"godiva/internal/lint/callgraph"
)

// raceState is the abstract state at one program point.
type raceState struct {
	held   map[string]bool
	owned  map[types.Object]bool
	shared map[types.Object]bool
}

func newRaceState() *raceState {
	return &raceState{
		held:   make(map[string]bool),
		owned:  make(map[types.Object]bool),
		shared: make(map[types.Object]bool),
	}
}

func (st *raceState) clone() dfState {
	n := newRaceState()
	for k := range st.held {
		n.held[k] = true
	}
	for k := range st.owned {
		n.owned[k] = true
	}
	for k := range st.shared {
		n.shared[k] = true
	}
	return n
}

// merge joins two path states: held and owned intersect (only facts true
// on every path survive), shared unions (shared on any path is shared).
func (st *raceState) merge(other dfState) {
	o := other.(*raceState)
	for k := range st.held {
		if !o.held[k] {
			delete(st.held, k)
		}
	}
	for k := range st.owned {
		if !o.owned[k] {
			delete(st.owned, k)
		}
	}
	for k := range o.shared {
		st.shared[k] = true
	}
}

func (st *raceState) equal(other dfState) bool {
	o := other.(*raceState)
	if len(st.held) != len(o.held) || len(st.owned) != len(o.owned) || len(st.shared) != len(o.shared) {
		return false
	}
	for k := range st.held {
		if !o.held[k] {
			return false
		}
	}
	for k := range st.owned {
		if !o.owned[k] {
			return false
		}
	}
	for k := range st.shared {
		if !o.shared[k] {
			return false
		}
	}
	return true
}

// raceWalk adapts one unit to the dataflow driver.
type raceWalk struct {
	c    *raceChecker
	u    *callgraph.Unit
	info *types.Info
	rec  bool // this is the module-level recording pass

	// outer holds, for literal units, the variables declared outside the
	// literal (capture candidates); concurrent marks literals that can run
	// concurrently with their encloser.
	outer      map[types.Object]bool
	concurrent bool

	// results are the unit's result variables by index (nil for unnamed),
	// for the returns-fresh summary at bare returns and fall-off exits.
	results []*types.Var

	// assumed marks a unit live only under the uncalled-exported-API
	// assumption: its invocation records land in the assumed tier and its
	// accesses are not evidence of a concrete execution.
	assumed bool
}

func (w *raceWalk) refine(cond ast.Expr, negate bool, st dfState) {}

// atExit folds this exit's results into the unit's returns-fresh summary:
// bit i is kept only if result i is a fresh allocation (or part of an
// owned private graph) on every return path.
func (w *raceWalk) atExit(stt dfState, ret *ast.ReturnStmt, record bool) {
	st := stt.(*raceState)
	var mask uint64
	if ret != nil && len(ret.Results) > 0 {
		for i, e := range ret.Results {
			if i < 64 && w.resultFresh(e, st) {
				mask |= 1 << uint(i)
			}
		}
	} else {
		for i, v := range w.results {
			if i < 64 && v != nil && st.owned[v] {
				mask |= 1 << uint(i)
			}
		}
	}
	w.c.entries.ret(w.u.ID, mask)
}

func (w *raceWalk) transfer(n ast.Node, stt dfState, record bool) {
	st := stt.(*raceState)
	rec := record && w.rec
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			w.scan(rhs, st, rec)
		}
		// a, b := f() with every result a fresh allocation: both owned.
		var multiCall *ast.CallExpr
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			multiCall, _ = ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
		}
		for i, lhs := range n.Lhs {
			if n.Tok != token.DEFINE {
				w.target(lhs, st, rec)
			}
			if len(n.Rhs) == len(n.Lhs) && w.storeEscapes(lhs, st) {
				// Stored through a non-owned target (a global, a shared
				// capture, or a field of an escaped object): the value is now
				// reachable by other goroutines.
				w.escapeRoot(n.Rhs[i], st)
			}
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := identObj(w.info, id)
			if obj == nil {
				continue
			}
			if n.Tok == token.DEFINE {
				// A := in a loop creates a fresh per-iteration instance:
				// sharing with goroutines spawned in earlier iterations does
				// not carry over (Go 1.22 loop-variable semantics). The
				// define itself is a write to the new instance, never a race.
				delete(st.shared, obj)
			}
			var rhs ast.Expr
			if len(n.Rhs) == len(n.Lhs) {
				rhs = n.Rhs[i]
			}
			switch {
			case rhs != nil && w.fresh(rhs):
				st.owned[obj] = true
			case rhs != nil && w.ownedDerived(rhs, st):
				// Loaded from an owned object: the whole reachable graph of
				// an owned allocation is private until it escapes.
				st.owned[obj] = true
			case multiCall != nil && w.callFresh(multiCall, i):
				st.owned[obj] = true
			case n.Tok == token.DEFINE && valueOwnedType(obj.Type()):
				// A value-typed local is a private copy.
				st.owned[obj] = true
			case rhs != nil && !valueOwnedType(obj.Type()):
				// Reassigned to an unknown (possibly shared) object.
				delete(st.owned, obj)
			}
		}
	case *ast.IncDecStmt:
		w.target(n.X, st, rec)
	case *ast.ExprStmt:
		w.scan(n.X, st, rec)
	case *ast.SendStmt:
		w.scan(n.Chan, st, rec)
		w.scan(n.Value, st, rec)
		w.escapeRoot(n.Value, st)
	case *ast.GoStmt:
		w.goStmt(n, st, rec)
	case *ast.DeferStmt:
		w.deferStmt(n, st, rec)
	case *ast.RangeStmt:
		w.scan(n.X, st, rec)
		isChan := false
		if tv, ok := w.info.Types[n.X]; ok && tv.Type != nil {
			_, isChan = tv.Type.Underlying().(*types.Chan)
		}
		if isChan {
			// Receiving is a join point (handoff happens-before approx).
			clearObjs(st.shared)
		}
		// Ranging over an owned container yields elements of the owned
		// private graph (same rule as indexing an owned root).
		ownedElems := w.fresh(n.X) || w.ownedDerived(n.X, st)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			id, ok := e.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := identObj(w.info, id)
			if obj == nil {
				continue
			}
			if n.Tok == token.DEFINE {
				delete(st.shared, obj) // fresh per-iteration instance
			}
			if isChan || ownedElems || valueOwnedType(obj.Type()) {
				st.owned[obj] = true
			}
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			w.scan(e, st, rec)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				w.scan(v, st, rec)
			}
			for i, name := range vs.Names {
				obj := identObj(w.info, name)
				if obj == nil || name.Name == "_" {
					continue
				}
				switch {
				case i < len(vs.Values) && w.fresh(vs.Values[i]):
					st.owned[obj] = true
				case len(vs.Values) == 0 || valueOwnedType(obj.Type()):
					// `var h T` starts as a private zero value.
					st.owned[obj] = true
				}
			}
		}
	case ast.Expr:
		w.scan(n, st, rec)
	}
}

// scan walks an expression in read context, recording shared reads and
// dispatching calls and literals.
func (w *raceWalk) scan(e ast.Expr, st *raceState, rec bool) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e, st, rec)
	case *ast.FuncLit:
		w.litValue(e, st, rec)
	case *ast.SelectorExpr:
		w.access(e, false, st, rec)
		w.scan(e.X, st, rec)
	case *ast.Ident:
		w.identAccess(e, false, st, rec)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			// A blocking receive is a join point.
			clearObjs(st.shared)
		}
		if e.Op == token.AND {
			// Address escapes to an unknown holder (assignments, composite
			// elements, returns); call arguments keep ownership via scanArg.
			w.escapeRoot(e.X, st)
		}
		w.scan(e.X, st, rec)
	case *ast.ParenExpr:
		w.scan(e.X, st, rec)
	case *ast.StarExpr:
		w.scan(e.X, st, rec)
	case *ast.BinaryExpr:
		w.scan(e.X, st, rec)
		w.scan(e.Y, st, rec)
	case *ast.IndexExpr:
		w.scan(e.X, st, rec)
		w.scan(e.Index, st, rec)
	case *ast.IndexListExpr:
		w.scan(e.X, st, rec)
	case *ast.SliceExpr:
		w.scan(e.X, st, rec)
		w.scan(e.Low, st, rec)
		w.scan(e.High, st, rec)
		w.scan(e.Max, st, rec)
	case *ast.TypeAssertExpr:
		w.scan(e.X, st, rec)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.scan(el, st, rec)
		}
	case *ast.KeyValueExpr:
		w.scan(e.Value, st, rec)
	}
}

// target walks an expression in write context.
func (w *raceWalk) target(lhs ast.Expr, st *raceState, rec bool) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		w.identAccess(e, true, st, rec)
	case *ast.SelectorExpr:
		w.access(e, true, st, rec)
		w.scan(e.X, st, rec)
	case *ast.IndexExpr:
		w.scan(e.Index, st, rec)
		isMap := false
		if tv, ok := w.info.Types[e.X]; ok && tv.Type != nil {
			_, isMap = tv.Type.Underlying().(*types.Map)
		}
		if isMap {
			// Writing a map element mutates the shared container.
			w.target(e.X, st, rec)
			return
		}
		// Slice/array element writes are treated as sharded (each worker
		// writing its own index is the idiomatic fan-out shape); only the
		// header read is recorded.
		w.scan(e.X, st, rec)
	case *ast.StarExpr:
		// Writing through a pointer: the pointee's identity is unknown
		// (documented blind spot); the pointer itself is read.
		w.scan(e.X, st, rec)
	default:
		w.scan(lhs, st, rec)
	}
}

// access records a struct-field access when the field is shared-relevant:
// module-declared, not a sync primitive, not reached through an owned
// root.
func (w *raceWalk) access(sel *ast.SelectorExpr, write bool, st *raceState, rec bool) {
	// Qualified package identifier (pkg.Var)?
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if _, isPkg := identObj(w.info, id).(*types.PkgName); isPkg {
			if v, ok := w.info.Uses[sel.Sel].(*types.Var); ok {
				w.globalAccess(v, write, sel.Sel.Pos(), st, rec)
			}
			return
		}
	}
	fieldVar := w.fieldOf(sel)
	if fieldVar == nil {
		return
	}
	if typeExcluded(fieldVar.Type()) {
		return
	}
	named, path, ok := w.classAnchor(sel)
	if !ok {
		return
	}
	if named.Obj().Pkg() == nil || !w.c.modulePkg(named.Obj().Pkg()) {
		return
	}
	if root := rootIdent(sel); root != nil {
		obj := identObj(w.info, root)
		if obj != nil && st.owned[obj] {
			return
		}
	}
	if !rec {
		return
	}
	class := named.String() + "." + path
	w.c.recordAccess(raceAccess{
		class:   class,
		write:   write,
		pos:     sel.Sel.Pos(),
		held:    cloneSet(st.held),
		unitID:  w.u.ID,
		assumed: w.assumed,
	}, raceClassInfo{
		kind:    raceField,
		display: named.Obj().Name() + "." + path,
		owner:   named.String(),
		declPos: fieldVar.Pos(),
	})
}

// classAnchor names the storage a field selector denotes, walking outward
// through value-typed struct fields: c.stats.BytesCopied lives inside a
// Client instance, so its class is Client.stats.BytesCopied rather than a
// free-floating Stats.BytesCopied that would merge independently guarded
// instances embedded by value in different owners. Pointer fields break
// the chain — a *T field aliases storage the outer struct does not own.
func (w *raceWalk) classAnchor(sel *ast.SelectorExpr) (*types.Named, string, bool) {
	path := sel.Sel.Name
	cur := sel
	for {
		tv, ok := w.info.Types[cur.X]
		if !ok || tv.Type == nil {
			return nil, "", false
		}
		named, isNamed := deref(tv.Type).(*types.Named)
		if !isNamed {
			return nil, "", false
		}
		inner, isSel := ast.Unparen(cur.X).(*ast.SelectorExpr)
		if !isSel {
			return named, path, true
		}
		// Step outward only when cur.X itself selects a value-typed
		// (non-pointer) struct field; a pointer field or a non-field
		// selection (method value, map entry) anchors here.
		fv := w.fieldOf(inner)
		if fv == nil {
			return named, path, true
		}
		if _, isStruct := fv.Type().Underlying().(*types.Struct); !isStruct {
			return named, path, true
		}
		path = inner.Sel.Name + "." + path
		cur = inner
	}
}

// fieldOf resolves a selector to the struct field it denotes (nil for
// methods, package members, and unresolved selections).
func (w *raceWalk) fieldOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := w.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// identAccess records package-level and captured-local accesses.
func (w *raceWalk) identAccess(id *ast.Ident, write bool, st *raceState, rec bool) {
	if id.Name == "_" {
		return
	}
	v, ok := identObj(w.info, id).(*types.Var)
	if !ok || v.IsField() {
		return
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		w.globalAccess(v, write, id.Pos(), st, rec)
		return
	}
	// Local variable: only interesting once captured by a concurrent
	// literal. Inside such a literal every outer access counts; in the
	// spawning unit only accesses after the spawn (flow state) count.
	shared := st.shared[v]
	if !shared && w.u.Lit != nil && w.outer[v] {
		// An outer variable: a concurrent literal races with its encloser
		// by construction; a synchronous one only if some spawn elsewhere
		// shares the variable (the flow state of the encloser is not
		// visible here, so everShared approximates it).
		shared = w.concurrent || w.c.everShared[v]
	}
	if !shared || st.owned[v] {
		return
	}
	if !rec {
		return
	}
	pos := w.c.fset.Position(v.Pos())
	w.c.recordAccess(raceAccess{
		class:   posClass(v.Name(), pos),
		write:   write,
		pos:     id.Pos(),
		held:    cloneSet(st.held),
		unitID:  w.u.ID,
		assumed: w.assumed,
	}, raceClassInfo{
		kind:    raceLocal,
		display: `captured "` + v.Name() + `"`,
		declPos: v.Pos(),
	})
}

// globalAccess records a package-level variable access.
func (w *raceWalk) globalAccess(v *types.Var, write bool, pos token.Pos, st *raceState, rec bool) {
	if v.Pkg() == nil || !w.c.modulePkg(v.Pkg()) || typeExcluded(v.Type()) {
		return
	}
	if !rec {
		return
	}
	w.c.recordAccess(raceAccess{
		class:   v.Pkg().Path() + "." + v.Name(),
		write:   write,
		pos:     pos,
		held:    cloneSet(st.held),
		unitID:  w.u.ID,
		assumed: w.assumed,
	}, raceClassInfo{
		kind:    raceGlobal,
		display: v.Pkg().Name() + "." + v.Name(),
		declPos: v.Pos(),
	})
}

// storeEscapes reports whether assigning into lhs publishes the stored
// value: the target is a package-level variable, a shared captured local,
// or a path rooted at a non-owned object (another goroutine may already
// reach the container). Stores into locals and owned private graphs keep
// the value private.
func (w *raceWalk) storeEscapes(lhs ast.Expr, st *raceState) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		v, ok := identObj(w.info, e).(*types.Var)
		if !ok {
			return false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		return st.shared[v]
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		root := rootIdent(e)
		if root == nil {
			return true
		}
		obj := identObj(w.info, root)
		if obj == nil {
			return true
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		return !st.owned[obj]
	}
	return false
}

// escapeRoot kills ownership of the object at the root of e (it escapes
// to an unknown holder).
func (w *raceWalk) escapeRoot(e ast.Expr, st *raceState) {
	if root := rootIdent(e); root != nil {
		if obj := identObj(w.info, root); obj != nil {
			delete(st.owned, obj)
		}
	}
}

// fresh reports whether an expression denotes a newly created object no
// other goroutine can reach: composite literals (and their address), new,
// make, channel receives (ownership handoff), and calls to module
// constructors whose every return path yields a fresh allocation.
func (w *raceWalk) fresh(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
		return e.Op == token.ARROW
	case *ast.CallExpr:
		res := w.c.mc.Graph.Resolve(w.info, e)
		if res.Builtin == "new" || res.Builtin == "make" || res.Builtin == "append" {
			return true
		}
		return w.callFresh(e, 0)
	}
	return false
}

// resultFresh reports whether a returned expression yields a value no
// caller can race through: nil and constants trivially qualify (the usual
// `return nil, err` error path of a constructor), as do fresh allocations
// and reads from the unit's owned private graph.
func (w *raceWalk) resultFresh(e ast.Expr, st *raceState) bool {
	if tv, ok := w.info.Types[e]; ok && (tv.IsNil() || tv.Value != nil) {
		return true
	}
	return w.fresh(e) || w.ownedDerived(e, st)
}

// ownedDerived reports whether an expression reads through an owned root
// (v.field, v.a[i].b, *v): values loaded from an owned allocation stay in
// the private graph until the root escapes.
func (w *raceWalk) ownedDerived(e ast.Expr, st *raceState) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := identObj(w.info, root)
	return obj != nil && st.owned[obj]
}

// callFresh reports whether result i of a call is a fresh allocation at
// every return of every resolvable module callee (the returns-fresh
// summary accumulated by the entry-table fixpoint). External callees are
// never trusted — accessors returning shared state look identical from
// the outside.
func (w *raceWalk) callFresh(call *ast.CallExpr, i int) bool {
	if i >= 64 {
		return false
	}
	res := w.c.mc.Graph.Resolve(w.info, call)
	var ids []string
	switch {
	case res.Lit != nil:
		if lu := w.c.cm.UnitForLit(res.Lit); lu != nil {
			ids = append(ids, lu.ID)
		}
	case res.Static != nil:
		ids = append(ids, res.Static.Key)
	case len(res.CHA) > 0:
		for _, t := range res.CHA {
			ids = append(ids, t.Key)
		}
	}
	if len(ids) == 0 {
		return false
	}
	for _, id := range ids {
		if w.c.entries.retFreshFor(id)&(1<<uint(i)) == 0 {
			return false
		}
	}
	return true
}

// valueOwnedType reports whether a variable of this type is a private
// copy (struct or array value — no aliasing without explicit &).
func valueOwnedType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

// typeExcluded reports sync-primitive types (sync.Mutex, atomic.Int64,
// ...): their own synchronization discipline is checked elsewhere
// (lockcheck, atomiccheck), and accessing them is not a data race.
func typeExcluded(t types.Type) bool {
	t = deref(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "sync" || pkg.Path() == "sync/atomic"
}

func clearObjs(m map[types.Object]bool) {
	for k := range m {
		delete(m, k)
	}
}

// goStmt handles a goroutine launch: captured locals become shared from
// here on, owned objects referenced by the spawn escape — but ownership of
// owned captures/arguments is handed off to the goroutine (intersected
// over spawn sites), modeling the init-then-give-away idiom.
func (w *raceWalk) goStmt(n *ast.GoStmt, st *raceState, rec bool) {
	mask := w.ownedArgMask(n.Call, st)
	if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
		if lu := w.c.cm.UnitForLit(lit); lu != nil {
			owned := make(map[types.Object]bool)
			for _, obj := range w.c.litCaptures(lit, w.info) {
				if st.owned[obj] {
					owned[obj] = true
				}
			}
			w.c.entries.handoff(lu.ID, owned, w.assumed)
			w.c.entries.invoke(lu.ID, nil, mask, w.assumed)
		}
		w.shareCaptures(lit, st)
	} else {
		res := w.c.mc.Graph.Resolve(w.info, n.Call)
		targets := res.CHA
		if res.Static != nil {
			targets = []*callgraph.Func{res.Static}
		}
		for _, t := range targets {
			w.c.entries.invoke(t.Key, nil, mask, w.assumed)
		}
	}
	for _, a := range n.Call.Args {
		w.scan(a, st, rec)
		w.escapeRoot(a, st)
		if ue, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && ue.Op == token.AND {
			w.escapeRoot(ue.X, st)
		}
	}
}

// deferStmt handles a deferred call: mutex ops run at return (no state
// change now); literals and module callees are invoked with the
// registration-point lockset.
func (w *raceWalk) deferStmt(n *ast.DeferStmt, st *raceState, rec bool) {
	if w.lockTransition(n.Call, st, true) {
		return
	}
	if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
		if lu := w.c.cm.UnitForLit(lit); lu != nil {
			w.c.entries.invoke(lu.ID, st.held, w.ownedArgMask(n.Call, st), w.assumed)
		}
		for _, a := range n.Call.Args {
			w.scanArg(a, st, rec)
		}
		return
	}
	w.call(n.Call, st, rec)
}

// shareCaptures marks every local the literal captures as shared and no
// longer owned.
func (w *raceWalk) shareCaptures(lit *ast.FuncLit, st *raceState) {
	for _, obj := range w.c.litCaptures(lit, w.info) {
		st.shared[obj] = true
		delete(st.owned, obj)
		w.c.everShared[obj] = true
	}
}

// litValue handles a literal in value position: concurrent literals
// (go/callback, or invoked from a spawned sub-unit of a callee) share
// their captures from this point; inherited literals are invocations at
// the current lockset.
func (w *raceWalk) litValue(lit *ast.FuncLit, st *raceState, rec bool) {
	lu := w.c.cm.UnitForLit(lit)
	if lu == nil {
		return
	}
	if w.c.cm.Concurrent(lit) {
		w.shareCaptures(lit, st)
		return
	}
	// A synchronous (inherited) literal value: invoked with the current
	// lockset, arguments supplied later with unknown ownership. The
	// literal runs while this frame is suspended, so owned captures stay
	// private inside it.
	w.c.entries.invoke(lu.ID, st.held, 0, w.assumed)
	w.handoffCaptures(lit, lu.ID, st)
}

// handoffCaptures records which captured objects are owned at one
// synchronous invocation of a literal (intersected over sites by the
// entry table).
func (w *raceWalk) handoffCaptures(lit *ast.FuncLit, unitID string, st *raceState) {
	owned := make(map[types.Object]bool)
	for _, obj := range w.c.litCaptures(lit, w.info) {
		if st.owned[obj] {
			owned[obj] = true
		}
	}
	w.c.entries.handoff(unitID, owned, w.assumed)
}

// lockTransition applies x.Lock()/x.Unlock() and friends to the held
// set, returning whether the call was a mutex method. When deferred is
// set the transition is skipped (it runs at return) but the call is still
// claimed.
func (w *raceWalk) lockTransition(call *ast.CallExpr, st *raceState, deferred bool) bool {
	mu, op, ok := lockCall(w.info, call)
	if !ok {
		return false
	}
	class, display, ok := mutexClassOf(w.info, w.c.fset, mu)
	if !ok {
		return true // a mutex method on an unnameable lock: ignore
	}
	w.c.display[class] = display
	if deferred {
		return true
	}
	if op == lockRelease {
		delete(st.held, class)
	} else {
		st.held[class] = true
	}
	return true
}

// call applies one call's effects: lock transitions, atomic-access
// exclusion, join points, invocation records for module callees, and
// recursive scanning of receiver and arguments.
func (w *raceWalk) call(call *ast.CallExpr, st *raceState, rec bool) {
	if w.lockTransition(call, st, false) {
		return
	}
	res := w.c.mc.Graph.Resolve(w.info, call)
	if res.Ext != nil && res.Ext.Pkg() != nil {
		switch res.Ext.Pkg().Path() {
		case "sync/atomic":
			// The addressed operand is accessed atomically: not a plain
			// shared access, and the exclusion the ISSUE requires.
			for _, a := range call.Args {
				if ue, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && ue.Op == token.AND {
					continue
				}
				w.scan(a, st, rec)
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				// x.f.Add(1): x.f is excluded by type; scan the base only.
				if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
					w.scan(inner.X, st, rec)
				}
			}
			return
		case "sync":
			if recvTypeString(res.Ext) == "sync.WaitGroup" && res.Ext.Name() == "Wait" {
				// Joining workers hands captured locals back.
				clearObjs(st.shared)
			}
		}
	}
	// Invocation records: module callees and immediately-invoked literals.
	var calleeUnits []string
	switch {
	case res.Lit != nil:
		if lu := w.c.cm.UnitForLit(res.Lit); lu != nil {
			calleeUnits = append(calleeUnits, lu.ID)
		}
	case res.Static != nil:
		calleeUnits = append(calleeUnits, res.Static.Key)
	case len(res.CHA) > 0:
		for _, t := range res.CHA {
			calleeUnits = append(calleeUnits, t.Key)
		}
	}
	if len(calleeUnits) > 0 {
		mask := w.ownedArgMask(call, st)
		for _, id := range calleeUnits {
			w.c.entries.invoke(id, st.held, mask, w.assumed)
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.scan(sel.X, st, rec)
	} else if res.Lit == nil {
		if _, isIdent := ast.Unparen(call.Fun).(*ast.Ident); !isIdent {
			w.scan(call.Fun, st, rec)
		}
	}
	for _, a := range call.Args {
		w.scanArg(a, st, rec)
	}
	if res.Lit != nil {
		// An immediately-invoked literal runs here, synchronously: owned
		// captures stay private inside it. Its body is analyzed as its own
		// unit.
		if lu := w.c.cm.UnitForLit(res.Lit); lu != nil {
			w.handoffCaptures(res.Lit, lu.ID, st)
		}
		return
	}
}

// scanArg scans a call argument: `&owned` keeps ownership (the callee
// side is covered by the owned-argument mask), everything else scans
// normally.
func (w *raceWalk) scanArg(a ast.Expr, st *raceState, rec bool) {
	if ue, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && ue.Op == token.AND {
		if root := rootIdent(ue.X); root != nil {
			if obj := identObj(w.info, root); obj != nil && st.owned[obj] {
				return
			}
		}
	}
	w.scan(a, st, rec)
}

// ownedArgMask computes which receiver/arguments of a call are owned by
// the caller: bit 0 is the receiver, bit i+1 argument i. The callee's
// accesses through a parameter stay in the init exclusion only if every
// call site passes an owned object.
func (w *raceWalk) ownedArgMask(call *ast.CallExpr, st *raceState) uint64 {
	var mask uint64
	ownedExpr := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			e = ast.Unparen(ue.X)
		}
		if w.fresh(e) {
			return true
		}
		if root := rootIdent(e); root != nil {
			if obj := identObj(w.info, root); obj != nil {
				return st.owned[obj]
			}
		}
		return false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if ownedExpr(sel.X) {
			mask |= 1
		}
	}
	for i, a := range call.Args {
		if i+1 >= 64 {
			break
		}
		if ownedExpr(a) {
			mask |= 1 << uint(i+1)
		}
	}
	return mask
}

func recvTypeString(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return types.TypeString(deref(sig.Recv().Type()), nil)
}
