package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// borrowcheck enforces the zero-copy borrow contract: values that alias
// memory owned by someone else — BorrowFieldBuffer results, mmap-aliased
// shdf Raw bytes and Dataset views, FilePayload arena slices — are
// read-only and must not outlive their pin. A unit's own field buffers
// (GetFieldBuffer/FieldBuffer results) are borrows too, pinned by the unit:
// the application may fill and publish them while it holds the unit, so
// only the last rule below applies to them. Flow-sensitively, per path:
//
//   - write-through: assigning through a borrowed value (index/pointer
//     element writes, copy into it, append to it) is flagged — borrowed
//     memory is the mapping or the arena, not a private copy;
//   - escape: storing a borrowed derivation (fp.Data, ds.Int32s, raw
//     bytes) into a package-level variable, a channel, or anything rooted
//     at a parameter/receiver gives it a lifetime the pin does not cover.
//     Handing off a whole *FilePayload is fine — the refcount travels with
//     it (whoever holds it must Recycle it) — but detaching its Data slice
//     is not;
//   - use-after-release: touching a borrow after the owner is gone
//     (fp.Recycle, File.Close on the backing file, FinishUnit/DeleteUnit
//     after the buffer was obtained) reads recycled arena bytes, an
//     unmapped region, or a buffer the cache may evict at any moment.
//
// Borrows propagate through assignments and slicing; return values and
// call arguments are not escapes (the callee is analyzed on its own).
// Deferred statements are skipped: a deferred Close/Recycle runs at exit,
// after every use in the body.
var borrowcheckAnalyzer = &analyzer{
	name: "borrowcheck",
	doc:  "zero-copy borrows: no writes through, no escapes past the pin, no use after release",
	run:  runBorrowcheck,
}

// Borrow kinds.
const (
	bkPayload = iota // whole *FilePayload (hand-off allowed, Data is not)
	bkBuffer         // BorrowFieldBuffer result
	bkDataset        // shdf ReadSDS Dataset view
	bkRaw            // shdf Raw mmap bytes
	bkUnit           // GetFieldBuffer/FieldBuffer result, pinned by its unit
	bkSlice          // derivation of any of the above
)

// relUnit is the rel of unit-pinned borrows (and their derivations).
const relUnit = "FinishUnit/DeleteUnit"

var bkWhat = [...]string{
	bkPayload: "payload arena memory",
	bkBuffer:  "BorrowFieldBuffer buffer",
	bkDataset: "Dataset view",
	bkRaw:     "mmap-backed Raw bytes",
	bkUnit:    "unit field buffer",
	bkSlice:   "borrowed slice",
}

// bcInfo describes one borrow (immutable once created).
type bcInfo struct {
	kind  int
	what  string       // bkWhat of the original source, for messages
	owner types.Object // object whose release invalidates the borrow
	rel   string       // the releasing call ("Recycle", "Close", relUnit)
}

// bcState is the abstract state: borrowed objects on this path, and owner
// objects already released on some path in (may-analysis on both).
type bcState struct {
	borrows  map[types.Object]*bcInfo
	released map[types.Object]bool
}

func newBCState() *bcState {
	return &bcState{borrows: make(map[types.Object]*bcInfo), released: make(map[types.Object]bool)}
}

func (st *bcState) clone() dfState {
	n := newBCState()
	for k, v := range st.borrows {
		n.borrows[k] = v
	}
	for k := range st.released {
		n.released[k] = true
	}
	return n
}

func (st *bcState) merge(other dfState) {
	o := other.(*bcState)
	for k, v := range o.borrows {
		if _, ok := st.borrows[k]; !ok {
			st.borrows[k] = v
		}
	}
	for k := range o.released {
		st.released[k] = true
	}
}

func (st *bcState) equal(other dfState) bool {
	o := other.(*bcState)
	if len(st.borrows) != len(o.borrows) || len(st.released) != len(o.released) {
		return false
	}
	for k := range st.borrows {
		if _, ok := o.borrows[k]; !ok {
			return false
		}
	}
	for k := range st.released {
		if !o.released[k] {
			return false
		}
	}
	return true
}

type bcChecker struct {
	mc       *moduleContext
	fset     *token.FileSet
	findings []Finding
	reported map[token.Pos]bool
}

func runBorrowcheck(mc *moduleContext) []Finding {
	if len(mc.Pkgs) == 0 || mc.Pkgs[0].Fset == nil || mc.Graph == nil {
		return nil
	}
	c := &bcChecker{mc: mc, fset: mc.Pkgs[0].Fset, reported: make(map[token.Pos]bool)}
	for _, fn := range dfFuncs(mc) {
		info := fn.Pkg.Info
		if info == nil || fn.Decl.Body == nil {
			continue
		}
		c.analyzeBody(info, fn.Decl.Body, funcScopeObjs(info, fn.Decl))
		for _, lit := range funcLits(fn.Decl.Body) {
			c.analyzeBody(info, lit.Body, nil)
		}
	}
	return c.findings
}

// funcScopeObjs collects the receiver and parameter objects: stores rooted
// at them outlive the call, so borrowed stores there are escapes.
func funcScopeObjs(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := identObj(info, name); obj != nil {
					out[obj] = true
				}
			}
		}
	}
	addFields(decl.Recv)
	if decl.Type != nil {
		addFields(decl.Type.Params)
	}
	return out
}

func (c *bcChecker) analyzeBody(info *types.Info, body *ast.BlockStmt, outer map[types.Object]bool) {
	w := &bcWalk{c: c, info: info, outer: outer}
	runDataflow(c.mc.cfgOf(body), newBCState(), w, true)
}

type bcWalk struct {
	c     *bcChecker
	info  *types.Info
	outer map[types.Object]bool
}

func (w *bcWalk) atExit(st dfState, ret *ast.ReturnStmt, record bool) {}

func (w *bcWalk) transfer(n ast.Node, st dfState, record bool) {
	s := st.(*bcState)
	switch n := n.(type) {
	case *ast.AssignStmt:
		w.assign(n, s, record)
	case *ast.SendStmt:
		w.expr(n.Chan, s, record)
		w.expr(n.Value, s, record)
		w.escapeValue(n.Value, "a channel send", n.Pos(), s, record)
	case *ast.RangeStmt:
		w.expr(n.X, s, record)
		w.rangeBind(n, s)
	case *ast.DeferStmt:
		// Deferred releases run at exit, after every use in the body.
	case *ast.GoStmt:
		w.expr(n.Call, s, record)
	default:
		for _, e := range nodeExprs(n) {
			w.expr(e, s, record)
		}
	}
}

// assign handles writes through borrows, borrow creation/derivation, and
// escaping stores, in that order.
func (w *bcWalk) assign(n *ast.AssignStmt, s *bcState, record bool) {
	for _, rhs := range n.Rhs {
		w.expr(rhs, s, record)
	}
	for _, lhs := range n.Lhs {
		switch lhs.(type) {
		case *ast.IndexExpr, *ast.StarExpr:
			if b := w.lentTo(s, lhs); b != nil {
				w.report(record, n.Pos(), "write through borrowed %s (zero-copy borrows are read-only)", b.what)
			} else {
				w.expr(lhs, s, record)
			}
		case *ast.Ident:
			// Plain rebind: a write, not a use (handled below).
		default:
			w.expr(lhs, s, record)
		}
	}
	if len(n.Lhs) != len(n.Rhs) {
		// Tuple form: only the source-call binding matters.
		if len(n.Rhs) == 1 {
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
				if info := w.classifySource(call); info != nil {
					w.bind(n.Lhs, info, s)
				}
			}
		}
		return
	}
	for i, rhs := range n.Rhs {
		lid, isIdent := n.Lhs[i].(*ast.Ident)
		if isIdent && lid.Name != "_" {
			if obj := identObj(w.info, lid); obj != nil {
				// A package-level variable is a store that outlives every
				// pin, not a local rebind.
				if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					w.escapeValue(rhs, "a global", n.Pos(), s, record)
					continue
				}
				// (Re)binding kills the old borrow and release facts.
				delete(s.borrows, obj)
				delete(s.released, obj)
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					if info := w.classifySource(call); info != nil {
						if info.owner == nil {
							info.owner = obj
						}
						s.borrows[obj] = info
						continue
					}
				}
				if b := w.borrowOf(s, rhs); b != nil {
					s.borrows[obj] = w.derive(b, rhs)
					continue
				}
				continue
			}
		}
		// Store into a non-local left-hand side.
		if w.outlives(n.Lhs[i]) {
			w.escapeValue(rhs, "a struct field or global", n.Pos(), s, record)
		}
	}
}

// bind attaches a freshly created borrow to the value variable of a
// tuple assignment (v, err := source(...)).
func (w *bcWalk) bind(lhs []ast.Expr, info *bcInfo, s *bcState) {
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := identObj(w.info, id)
		if obj == nil || isErrorType(obj.Type()) {
			continue
		}
		delete(s.borrows, obj)
		delete(s.released, obj)
		if info.owner == nil {
			info.owner = obj
		}
		s.borrows[obj] = info
		return
	}
}

// derive produces the borrow info for an expression rooted at borrow b:
// a bare alias keeps the kind, a proper derivation (fp.Data, ds.Int32s,
// raw[4:]) becomes a borrowed slice.
func (w *bcWalk) derive(b *bcInfo, rhs ast.Expr) *bcInfo {
	if _, ok := ast.Unparen(rhs).(*ast.Ident); ok {
		return b
	}
	return &bcInfo{kind: bkSlice, what: b.what, owner: b.owner, rel: b.rel}
}

// rangeBind rebinds the range variables: ranging over a borrowed slice
// derives element borrows; ranging over anything else clears them.
func (w *bcWalk) rangeBind(n *ast.RangeStmt, s *bcState) {
	b := w.borrowOf(s, n.X)
	for _, v := range []ast.Expr{n.Key, n.Value} {
		id, ok := v.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := identObj(w.info, id)
		if obj == nil {
			continue
		}
		delete(s.borrows, obj)
		delete(s.released, obj)
		if b != nil && v == n.Value {
			s.borrows[obj] = w.derive(b, n.X)
		}
	}
}

// expr walks an expression: use-after-release checks on every borrowed
// identifier, then call effects (releases, copy/append write-throughs).
// Function-literal bodies are skipped (analyzed separately).
func (w *bcWalk) expr(e ast.Expr, s *bcState, record bool) {
	if e == nil {
		return
	}
	// Releases collect during the walk and apply after it: the receiver of
	// fp.Recycle() is a release, not a use-after-release of itself.
	var released []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if b, ok := s.borrows[identObj(w.info, n)]; ok && b.owner != nil && s.released[b.owner] {
				w.report(record, n.Pos(), "use of %s after %s released it", b.what, b.rel)
			}
		case *ast.CallExpr:
			released = append(released, w.call(n, s, record)...)
		}
		return true
	})
	for _, obj := range released {
		s.released[obj] = true
	}
}

// call applies a call's borrow effects, returning the owners it releases.
func (w *bcWalk) call(call *ast.CallExpr, s *bcState, record bool) []types.Object {
	var released []types.Object
	name, recv, _ := methodCall(call)
	switch {
	case name == "Recycle" && recvMatches(w.info, recv, "FilePayload"):
		if id := rootIdent(recv); id != nil {
			if obj := identObj(w.info, id); obj != nil {
				released = append(released, obj)
			}
		}
	case name == "Close" && recvMatches(w.info, recv, "File"):
		if id := rootIdent(recv); id != nil {
			if obj := identObj(w.info, id); obj != nil {
				released = append(released, obj)
			}
		}
	case name == "FinishUnit" || name == "DeleteUnit":
		// Unpins every field buffer obtained so far; one obtained after a
		// later WaitUnit is a fresh binding.
		for _, b := range s.borrows {
			if b.rel == relUnit {
				released = append(released, b.owner)
			}
		}
	}
	// Builtin writes into a borrowed destination.
	if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) > 0 {
		switch fid.Name {
		case "copy":
			if b := w.lentTo(s, call.Args[0]); b != nil {
				w.report(record, call.Pos(), "copy into borrowed %s (zero-copy borrows are read-only)", b.what)
			}
		case "append":
			if b := w.lentTo(s, call.Args[0]); b != nil {
				w.report(record, call.Pos(), "append to borrowed %s (zero-copy borrows are read-only)", b.what)
			}
		}
	}
	return released
}

// classifySource recognizes borrow-producing calls.
func (w *bcWalk) classifySource(call *ast.CallExpr) *bcInfo {
	name, recv, c := methodCall(call)
	if c == nil {
		return nil
	}
	switch {
	case (name == "FetchFile" || name == "FetchFiles") && recvMatches(w.info, recv, "Client"):
		return &bcInfo{kind: bkPayload, what: bkWhat[bkPayload], rel: "Recycle"}
	case name == "BorrowFieldBuffer":
		return &bcInfo{kind: bkBuffer, what: bkWhat[bkBuffer], rel: "FinishUnit"}
	case name == "GetFieldBuffer" || name == "FieldBuffer":
		return &bcInfo{kind: bkUnit, what: bkWhat[bkUnit], rel: relUnit}
	case name == "ReadSDS" && recvMatches(w.info, recv, "File"):
		return &bcInfo{kind: bkDataset, what: bkWhat[bkDataset], rel: "Close", owner: w.recvObj(recv)}
	case name == "Raw" && recvMatches(w.info, recv, "File"):
		return &bcInfo{kind: bkRaw, what: bkWhat[bkRaw], rel: "Close", owner: w.recvObj(recv)}
	}
	return nil
}

func (w *bcWalk) recvObj(recv ast.Expr) types.Object {
	if id := rootIdent(recv); id != nil {
		return identObj(w.info, id)
	}
	return nil
}

// borrowOf returns the borrow an expression is rooted at, nil when clean.
func (w *bcWalk) borrowOf(s *bcState, e ast.Expr) *bcInfo {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	return s.borrows[identObj(w.info, id)]
}

// lentTo is borrowOf restricted to borrows under the read-only, no-escape
// rules: everything but a unit's own field buffers.
func (w *bcWalk) lentTo(s *bcState, e ast.Expr) *bcInfo {
	if b := w.borrowOf(s, e); b != nil && b.rel != relUnit {
		return b
	}
	return nil
}

// escapeValue reports a borrowed value stored somewhere that outlives the
// pin. A bare *FilePayload identifier is exempt: handing off the whole
// payload moves the refcount with it.
func (w *bcWalk) escapeValue(e ast.Expr, where string, pos token.Pos, s *bcState, record bool) {
	b := w.lentTo(s, e)
	if b == nil {
		return
	}
	if b.kind == bkPayload {
		if _, bare := ast.Unparen(e).(*ast.Ident); bare {
			return
		}
	}
	w.report(record, pos, "borrowed %s escapes through %s (it outlives the pin; copy it instead)", b.what, where)
}

// outlives reports whether an assignment target outlives the current call:
// a package-level variable, or anything rooted at a receiver/parameter.
func (w *bcWalk) outlives(lhs ast.Expr) bool {
	id := rootIdent(lhs)
	if id == nil {
		return false
	}
	obj := identObj(w.info, id)
	if obj == nil {
		return false
	}
	if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return true
	}
	// A bare rebinding of the root identifier itself is local; only stores
	// *through* a parameter/receiver (selector, index, deref) escape.
	if _, bare := lhs.(*ast.Ident); bare {
		return false
	}
	return w.outer[obj]
}

func (w *bcWalk) report(record bool, pos token.Pos, format string, args ...any) {
	if !record || w.c.reported[pos] {
		return
	}
	w.c.reported[pos] = true
	w.c.findings = append(w.c.findings, Finding{
		Pos:      w.c.fset.Position(pos),
		Analyzer: "borrowcheck",
		Message:  fmt.Sprintf(format, args...),
	})
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

// recvMatches reports whether the receiver expression's type is known and
// its name contains want.
func recvMatches(info *types.Info, recv ast.Expr, want string) bool {
	if info == nil {
		return false
	}
	tv, ok := info.Types[recv]
	if !ok || tv.Type == nil {
		return false
	}
	return strings.Contains(tv.Type.String(), want)
}
