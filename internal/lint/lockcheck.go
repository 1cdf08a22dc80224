package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// lockcheck verifies GODIVA's single-mutex lock discipline:
//
//   - struct fields whose doc or trailing comment says "guarded by <mu>"
//     may only be read while a read or write lock is held, and only be
//     written while the write lock is held;
//   - functions and methods named *Locked (resp. *RLocked) assert by
//     convention that the caller holds the write (resp. read) lock, so
//     calling one requires that lock level at the call site.
//
// The analysis is intra-procedural, a forward dataflow problem over each
// function's control-flow graph (cfg.go, dataflow.go). The state is the
// lock level held on every path to a point: Lock/RLock/Unlock/RUnlock
// statements on sync.Mutex/sync.RWMutex values set it, joins (branch
// merges and loop heads) take the weakest level, and paths that return or
// panic never rejoin. A deferred Unlock does not end the critical section
// early; any other deferred call is checked at its registration point,
// where Go's LIFO ordering runs it while the lock is still held if it was
// registered after a deferred Unlock. A *Locked function starts in the
// held state. Function literals start unheld unless invoked in place.
// Test files are not analyzed (tests may poke state single-threaded), but
// annotations in them still register.
var lockcheckAnalyzer = &analyzer{
	name: "lockcheck",
	doc:  `"guarded by mu" fields and *Locked functions used without the lock`,
	run:  runLockcheck,
}

var guardedRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_.]*)`)

// lockLevel is lockcheck's dataflow state: the lock level held on every
// path to a program point.
type lockLevel int

const (
	lockNone  lockLevel = 0
	lockRead  lockLevel = 1
	lockWrite lockLevel = 2
)

// levelAfter is the level a Lock-family statement leaves behind.
var levelAfter = [...]lockLevel{lockAcquire: lockWrite, lockAcquireRead: lockRead, lockRelease: lockNone}

func (l *lockLevel) clone() dfState {
	c := *l
	return &c
}

func (l *lockLevel) merge(o dfState) { *l = min(*l, *o.(*lockLevel)) }

func (l *lockLevel) equal(o dfState) bool { return *l == *o.(*lockLevel) }

type lockChecker struct {
	mc       *moduleContext
	pkg      *Package
	info     *types.Info
	tpkg     *types.Package
	guarded  map[types.Object]string // field object -> mutex name from annotation
	findings []Finding
}

func runLockcheck(mc *moduleContext) []Finding {
	var out []Finding
	for _, p := range mc.Pkgs {
		if p.Info == nil || p.Types == nil {
			continue // lockcheck is type-driven; the build gate reports the breakage
		}
		lc := &lockChecker{
			mc:      mc,
			pkg:     p,
			info:    p.Info,
			tpkg:    p.Types,
			guarded: make(map[types.Object]string),
		}
		for _, f := range p.Files {
			if info := p.InfoFor(f); info != nil {
				lc.collectGuarded(f.AST, info)
			}
		}
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				st := lockNone
				switch {
				case strings.HasSuffix(fd.Name.Name, "RLocked"):
					st = lockRead
				case strings.HasSuffix(fd.Name.Name, "Locked"):
					st = lockWrite
				}
				lc.body(fd.Body, st)
			}
		}
		out = append(out, lc.findings...)
	}
	return out
}

// collectGuarded registers every struct field annotated "guarded by <mu>".
func (lc *lockChecker) collectGuarded(f *ast.File, info *types.Info) {
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			var texts []string
			if field.Doc != nil {
				texts = append(texts, field.Doc.Text())
			}
			if field.Comment != nil {
				texts = append(texts, field.Comment.Text())
			}
			mu := ""
			for _, t := range texts {
				if m := guardedRe.FindStringSubmatch(t); m != nil {
					mu = m[1]
				}
			}
			if mu == "" {
				continue
			}
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					lc.guarded[obj] = mu
				}
			}
		}
		return true
	})
}

func (lc *lockChecker) report(pos token.Pos, format string, args ...any) {
	lc.findings = append(lc.findings, Finding{
		Pos:      lc.pkg.Fset.Position(pos),
		Analyzer: "lockcheck",
		Message:  fmt.Sprintf(format, args...),
	})
}

// body checks one function or literal body entered at lock level st.
func (lc *lockChecker) body(b *ast.BlockStmt, st lockLevel) {
	runDataflow(lc.mc.cfgOf(b), &st, lc, true)
}

func (lc *lockChecker) refine(ast.Expr, bool, dfState) {}

func (lc *lockChecker) atExit(dfState, *ast.ReturnStmt, bool) {}

// transfer applies a Lock-family statement to the level and, on the
// recording sweep, checks every access and call in the node at the level
// before it.
func (lc *lockChecker) transfer(n ast.Node, stt dfState, record bool) {
	st := stt.(*lockLevel)
	if es, ok := n.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok {
			if _, op, ok := lockCall(lc.info, call); ok {
				*st = levelAfter[op]
				return
			}
		}
	}
	if !record {
		return
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			lc.expr(e, *st, false)
		}
		for _, e := range n.Lhs {
			lc.expr(e, *st, true)
		}
	case *ast.IncDecStmt:
		lc.expr(n.X, *st, true)
	case *ast.RangeStmt:
		lc.expr(n.X, *st, false)
		lc.expr(n.Key, *st, true)
		lc.expr(n.Value, *st, true)
	case *ast.DeferStmt:
		lc.deferCall(n.Call, *st)
	case *ast.GoStmt:
		if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
			lc.body(fl.Body, lockNone)
		} else {
			lc.expr(n.Call.Fun, *st, false)
		}
		for _, a := range n.Call.Args {
			lc.expr(a, *st, false)
		}
	default:
		for _, e := range nodeExprs(n) {
			lc.expr(e, *st, false)
		}
	}
}

// deferCall checks a deferred call at its registration point. A deferred
// mutex operation is the normal end-of-function release and is ignored; a
// deferred literal starts unheld; any other deferred call (including
// *Locked invariant hooks registered under the lock) is checked exactly
// like an immediate call at the current level.
func (lc *lockChecker) deferCall(call *ast.CallExpr, st lockLevel) {
	if _, _, ok := lockCall(lc.info, call); ok {
		return
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		lc.body(fl.Body, lockNone)
		return
	}
	lc.expr(call, st, false)
}

// --- expression walk ---

// expr checks guarded-field accesses and *Locked calls inside e at lock
// state st. write marks that e is an assignment target (or &-escape root).
func (lc *lockChecker) expr(e ast.Expr, st lockLevel, write bool) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.Ident:
		lc.checkObj(e, identObj(lc.info, e), st, write)
	case *ast.SelectorExpr:
		lc.expr(e.X, st, false)
		lc.checkObj(e.Sel, identObj(lc.info, e.Sel), st, write)
	case *ast.IndexExpr:
		lc.expr(e.X, st, write)
		lc.expr(e.Index, st, false)
	case *ast.StarExpr:
		lc.expr(e.X, st, write)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Taking the address lets the value escape the critical
			// section; require the write lock like a write would.
			lc.expr(e.X, st, true)
			return
		}
		lc.expr(e.X, st, false)
	case *ast.ParenExpr:
		lc.expr(e.X, st, write)
	case *ast.CallExpr:
		if fl, ok := e.Fun.(*ast.FuncLit); ok {
			// Immediately-invoked literal runs here, at the current state.
			lc.body(fl.Body, st)
		} else {
			lc.checkLockedCall(e, st)
			lc.expr(e.Fun, st, false)
		}
		for _, a := range e.Args {
			lc.expr(a, st, false)
		}
	case *ast.FuncLit:
		// Stored or passed literal: runs later, assume unheld.
		lc.body(e.Body, lockNone)
	case *ast.BinaryExpr:
		lc.expr(e.X, st, false)
		lc.expr(e.Y, st, false)
	case *ast.KeyValueExpr:
		lc.expr(e.Value, st, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			lc.expr(el, st, false)
		}
	case *ast.TypeAssertExpr:
		lc.expr(e.X, st, false)
	case *ast.SliceExpr:
		lc.expr(e.X, st, write)
		lc.expr(e.Low, st, false)
		lc.expr(e.High, st, false)
		lc.expr(e.Max, st, false)
	}
}

// checkObj reports an access to a guarded field at an insufficient lock
// level.
func (lc *lockChecker) checkObj(id *ast.Ident, obj types.Object, st lockLevel, write bool) {
	if obj == nil {
		return
	}
	mu, ok := lc.guarded[obj]
	if !ok {
		return
	}
	switch {
	case st == lockNone:
		lc.report(id.Pos(), "field %q is guarded by %s but accessed without holding it", id.Name, mu)
	case write && st == lockRead:
		lc.report(id.Pos(), "write to field %q (guarded by %s) while holding only the read lock", id.Name, mu)
	}
}

// checkLockedCall enforces the *Locked / *RLocked naming convention on
// calls to functions of the package under analysis.
func (lc *lockChecker) checkLockedCall(call *ast.CallExpr, st lockLevel) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	need := lockNone
	switch {
	case strings.HasSuffix(id.Name, "RLocked"):
		need = lockRead
	case strings.HasSuffix(id.Name, "Locked"):
		need = lockWrite
	default:
		return
	}
	// Only the conventions of this package apply; imported packages may
	// use the suffix for their own mutexes.
	if obj := identObj(lc.info, id); obj != nil && obj.Pkg() != nil &&
		obj.Pkg() != lc.tpkg && (lc.pkg.XTypes == nil || obj.Pkg() != lc.pkg.XTypes) {
		return
	}
	if st < need {
		kind := "the lock"
		if need == lockRead {
			kind = "at least the read lock"
		}
		lc.report(call.Pos(), "call to %s requires holding %s (\"%s\" suffix)",
			id.Name, kind, suffixOf(id.Name))
	}
}

func suffixOf(name string) string {
	if strings.HasSuffix(name, "RLocked") {
		return "RLocked"
	}
	return "Locked"
}
