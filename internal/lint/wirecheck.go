package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// wirecheck is a taint analysis for wire-derived lengths: an integer
// decoded from untrusted bytes (binary.LittleEndian/BigEndian.Uint16/32/64,
// or a module helper that returns such a value unchecked — the decoder
// u16/u32/u64 methods) must pass a dominating bound check before it sizes
// an allocation. A `make([]T, n)` where n is still raw wire input lets a
// corrupt or malicious frame demand gigabytes.
//
// Lattice per variable: clean < bounded < tainted; join is max. Taint
// propagates through assignments, arithmetic, and conversions. Any
// relational comparison mentioning a tainted variable downgrades it to
// bounded on both edges — the analysis checks that *a* bound was
// consulted, not that the bound is tight (a deliberately crude dominance
// test that matches the readFrameBuf/dec.count idiom). Interprocedural
// summaries over the call graph record which module functions return
// tainted values on any exit, so `n := d.u16()` is tainted while
// `n := d.count(8)` (internally bounded) is not. Struct-field stores carry
// taint by field identity (req.Count = dec.u32() taints later req.Count
// loads in the same function — instance-insensitive); map/slice loads,
// parameters, and fields never assigned in the function start clean:
// cross-function field taint is a documented blind spot.
var wirecheckAnalyzer = &analyzer{
	name: "wirecheck",
	doc:  "wire-decoded lengths are bound-checked before sizing allocations",
	run:  runWirecheck,
}

type wtLevel int8

const (
	wtClean wtLevel = iota
	wtBounded
	wtTainted
)

// wtState maps variables to taint levels (absent = clean).
type wtState struct {
	t map[types.Object]wtLevel
}

func newWTState() *wtState { return &wtState{t: make(map[types.Object]wtLevel)} }

func (st *wtState) clone() dfState {
	n := newWTState()
	for k, v := range st.t {
		n.t[k] = v
	}
	return n
}

func (st *wtState) merge(other dfState) {
	o := other.(*wtState)
	for k, v := range o.t {
		if v > st.t[k] {
			st.t[k] = v
		}
	}
}

func (st *wtState) equal(other dfState) bool {
	o := other.(*wtState)
	if len(st.t) != len(o.t) {
		return false
	}
	for k, v := range st.t {
		if o.t[k] != v {
			return false
		}
	}
	return true
}

type wtChecker struct {
	mc       *moduleContext
	fset     *token.FileSet
	findings []Finding
	reported map[token.Pos]bool

	// taintRet records module functions returning a wire-tainted value on
	// some exit (monotone, iterated to fixpoint).
	taintRet map[string]bool
}

func runWirecheck(mc *moduleContext) []Finding {
	if len(mc.Pkgs) == 0 || mc.Pkgs[0].Fset == nil || mc.Graph == nil {
		return nil
	}
	c := &wtChecker{
		mc:       mc,
		fset:     mc.Pkgs[0].Fset,
		reported: make(map[token.Pos]bool),
		taintRet: make(map[string]bool),
	}
	for iter := 0; iter < 10; iter++ {
		before := len(c.taintRet)
		c.pass(false)
		if len(c.taintRet) == before {
			break
		}
	}
	c.pass(true)
	return c.findings
}

func (c *wtChecker) pass(record bool) {
	for _, fn := range dfFuncs(c.mc) {
		info := fn.Pkg.Info
		if info == nil || fn.Decl.Body == nil {
			continue
		}
		w := &wtWalk{c: c, info: info, key: fn.Key}
		runDataflow(c.mc.cfgOf(fn.Decl.Body), newWTState(), w, record)
		for _, lit := range funcLits(fn.Decl.Body) {
			lw := &wtWalk{c: c, info: info}
			runDataflow(c.mc.cfgOf(lit.Body), newWTState(), lw, record)
		}
	}
}

type wtWalk struct {
	c    *wtChecker
	info *types.Info
	key  string // summary key, "" for function literals
}

func (w *wtWalk) transfer(n ast.Node, st dfState, record bool) {
	s := st.(*wtState)
	if a, ok := n.(*ast.AssignStmt); ok && len(a.Lhs) == len(a.Rhs) {
		for i, lhs := range a.Lhs {
			obj := w.lhsObj(lhs)
			if obj == nil {
				continue
			}
			if lvl := w.taintOf(a.Rhs[i], s); lvl > wtClean {
				s.t[obj] = lvl
			} else {
				delete(s.t, obj)
			}
		}
	} else if a, ok := n.(*ast.AssignStmt); ok && len(a.Rhs) == 1 {
		// Tuple assignment from a call: taint every non-error result when
		// the callee returns tainted.
		lvl := w.taintOf(a.Rhs[0], s)
		for _, lhs := range a.Lhs {
			obj := w.lhsObj(lhs)
			if obj == nil || isErrorType(obj.Type()) {
				continue
			}
			if lvl > wtClean {
				s.t[obj] = lvl
			} else {
				delete(s.t, obj)
			}
		}
	}
	// Allocation sinks anywhere in the node.
	for _, e := range nodeExprs(n) {
		forEachCall(e, func(call *ast.CallExpr) {
			w.checkSink(call, s, record)
		})
	}
}

// lhsObj resolves an assignment target to the object carrying its taint: a
// local/package variable, or the field *types.Var for a selector store
// (req.Count = dec.u32() taints the Count field — flow-sensitive within
// the function, instance-insensitive across receivers).
func (w *wtWalk) lhsObj(lhs ast.Expr) types.Object {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		return identObj(w.info, e)
	case *ast.SelectorExpr:
		if sl, ok := w.info.Selections[e]; ok && sl.Kind() == types.FieldVal {
			if v, ok := sl.Obj().(*types.Var); ok {
				return v
			}
		}
	}
	return nil
}

// checkSink flags make() calls sized by still-tainted lengths.
func (w *wtWalk) checkSink(call *ast.CallExpr, s *wtState, record bool) {
	fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fid.Name != "make" || len(call.Args) < 2 {
		return
	}
	for _, arg := range call.Args[1:] {
		if w.taintOf(arg, s) == wtTainted {
			if record && !w.c.reported[call.Pos()] {
				w.c.reported[call.Pos()] = true
				w.c.findings = append(w.c.findings, Finding{
					Pos:      w.c.fset.Position(call.Pos()),
					Analyzer: "wirecheck",
					Message: fmt.Sprintf("make sized by wire-tainted length %s with no dominating bound check (a corrupt frame controls this allocation)",
						exprText(arg)),
				})
			}
			return
		}
	}
}

// taintOf computes the taint level of an expression.
func (w *wtWalk) taintOf(e ast.Expr, s *wtState) wtLevel {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := identObj(w.info, e); obj != nil {
			return s.t[obj]
		}
		return wtClean
	case *ast.ParenExpr:
		return w.taintOf(e.X, s)
	case *ast.UnaryExpr:
		return w.taintOf(e.X, s)
	case *ast.BinaryExpr:
		x, y := w.taintOf(e.X, s), w.taintOf(e.Y, s)
		if y > x {
			return y
		}
		return x
	case *ast.SelectorExpr:
		// A struct-field load carries the field's taint (set by a selector
		// store in this function; fields not assigned here stay clean).
		if sl, ok := w.info.Selections[e]; ok && sl.Kind() == types.FieldVal {
			if v, ok := sl.Obj().(*types.Var); ok {
				return s.t[v]
			}
		}
		return wtClean
	case *ast.CallExpr:
		// A conversion carries its operand's taint.
		if tv, ok := w.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return w.taintOf(e.Args[0], s)
		}
		if isWireDecode(e) {
			return wtTainted
		}
		if w.c.mc.Graph != nil {
			res := w.c.mc.Graph.Resolve(w.info, e)
			if res.Static != nil && w.c.taintRet[res.Static.Key] {
				return wtTainted
			}
		}
		return wtClean
	}
	// Selector/index loads, literals, everything else: clean (documented
	// blind spot for struct-field taint).
	return wtClean
}

// isWireDecode matches binary.LittleEndian.UintNN / binary.BigEndian.UintNN.
func isWireDecode(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Uint16", "Uint32", "Uint64":
	default:
		return false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	base, ok := inner.X.(*ast.Ident)
	if !ok || base.Name != "binary" {
		return false
	}
	return inner.Sel.Name == "LittleEndian" || inner.Sel.Name == "BigEndian"
}

// refine downgrades tainted variables mentioned in a relational comparison
// to bounded, on both edges: the code consulted a bound, which is what the
// analysis demands (tightness is not checked).
func (w *wtWalk) refine(cond ast.Expr, negate bool, st dfState) {
	s := st.(*wtState)
	w.sanitize(cond, s)
}

func (w *wtWalk) sanitize(cond ast.Expr, s *wtState) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch be.Op {
	case token.LAND, token.LOR:
		w.sanitize(be.X, s)
		w.sanitize(be.Y, s)
		return
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
	default:
		return
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		ast.Inspect(side, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := identObj(w.info, id); obj != nil && s.t[obj] == wtTainted {
					s.t[obj] = wtBounded
				}
			}
			return true
		})
	}
}

// atExit folds return taint into the summary: a function returning a
// tainted value on any exit is itself a taint source for its callers.
func (w *wtWalk) atExit(st dfState, ret *ast.ReturnStmt, record bool) {
	if w.key == "" || ret == nil {
		return
	}
	s := st.(*wtState)
	for _, res := range ret.Results {
		if w.taintOf(res, s) == wtTainted {
			w.c.taintRet[w.key] = true
			return
		}
	}
}

// exprText renders a short source-ish form of an expression for messages.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return exprText(e.X)
	case *ast.BinaryExpr:
		return exprText(e.X) + " " + e.Op.String() + " " + exprText(e.Y)
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.BasicLit:
		return e.Value
	}
	return "length"
}
