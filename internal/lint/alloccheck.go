package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"godiva/internal/lint/callgraph"
)

// alloccheck enforces the //godiva:noalloc contract: a function carrying
// the annotation must not allocate on its hot path, transitively through
// module calls. The hot path excludes cold blocks — statement lists that
// terminate by returning a non-nil error, panicking, or calling a module
// function that unconditionally panics (invariantViolation) — so
// diagnostic fmt.Errorf construction on failure paths stays free.
//
// Recognized allocations: make, new, composite literals (including &T{}),
// function literals, go statements, string concatenation, string<->byte
// conversions, and calls to standard-library functions outside a small
// allocation-free whitelist (sync, sync/atomic, math, math/bits,
// encoding/binary, bytes comparisons, time.Now/Since). append is allowed:
// the annotated hot paths append into pooled or caller-provided buffers
// whose amortized growth is zero (the AllocsPerRun gate tests
// — internal/noalloctest — hold the static claim to runtime truth).
var alloccheckAnalyzer = &analyzer{
	name: "alloccheck",
	doc:  "//godiva:noalloc functions must stay allocation-free on hot paths",
	run:  runAlloccheck,
}

const noallocDirective = "//godiva:noalloc"

// allocFact is one may-allocate witness within a function.
type allocFact struct {
	desc string // "make", "call to encodeKeyValue (fmt.Sprintf)", ...
	pos  token.Pos
}

type allocChecker struct {
	mc        *moduleContext
	fset      *token.FileSet
	summaries map[string][]allocFact // function key -> hot-path allocations
	noreturn  map[string]bool        // function key -> body always panics
}

const allocSummaryCap = 24

func runAlloccheck(mc *moduleContext) []Finding {
	fset := fsetOf(mc)
	if fset == nil {
		return nil
	}
	c := &allocChecker{
		mc:        mc,
		fset:      fset,
		summaries: make(map[string][]allocFact),
		noreturn:  make(map[string]bool),
	}
	funcs := dfFuncs(c.mc)
	for _, fn := range funcs {
		if alwaysPanics(fn.Decl.Body) {
			c.noreturn[fn.Key] = true
		}
	}
	// Fixpoint over transitive may-allocate facts (summaries only grow).
	for iter := 0; iter < 12; iter++ {
		changed := false
		for _, fn := range funcs {
			before := len(c.summaries[fn.Key])
			c.summaries[fn.Key] = c.analyze(fn)
			if len(c.summaries[fn.Key]) != before {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	var findings []Finding
	for _, fn := range funcs {
		if !hasNoallocDirective(fn.Decl) {
			continue
		}
		for _, f := range c.summaries[fn.Key] {
			findings = append(findings, Finding{
				Pos:      fset.Position(f.pos),
				Analyzer: "alloccheck",
				Message: fmt.Sprintf("%s in //godiva:noalloc function %s (hot path must stay allocation-free)",
					f.desc, fn.Name),
			})
		}
	}
	return findings
}

// hasNoallocDirective reports whether a function declaration carries the
// //godiva:noalloc annotation in its doc comment.
func hasNoallocDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, ln := range fd.Doc.List {
		text := strings.TrimSpace(ln.Text)
		if text == noallocDirective || strings.HasPrefix(text, noallocDirective+" ") {
			return true
		}
	}
	return false
}

// alwaysPanics reports whether a body's only statement flow ends in a
// panic — the invariantViolation shape, treated as a terminator when
// classifying cold paths.
func alwaysPanics(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	last := body.List[len(body.List)-1]
	es, ok := last.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// analyze walks one function body and returns its hot-path allocation
// facts (direct sites plus transitive module calls), capped.
func (c *allocChecker) analyze(fn *callgraph.Func) []allocFact {
	w := &allocWalk{c: c, fn: fn, info: fn.Pkg.Info}
	w.parents = buildAllocParents(fn.Decl)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if n == nil || len(w.facts) >= allocSummaryCap {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && n != fn.Decl.Body {
			// A literal's body is its own (dynamic) function; creating it
			// is itself an allocation, caught at the FuncLit node below
			// before descending is cut off.
			if !w.cold(n) {
				w.add("function literal allocates", n.Pos())
			}
			return false
		}
		w.node(n)
		return true
	})
	return w.facts
}

type allocWalk struct {
	c       *allocChecker
	fn      *callgraph.Func
	info    *types.Info
	parents map[ast.Node]ast.Node
	facts   []allocFact
}

func (w *allocWalk) add(desc string, pos token.Pos) {
	if len(w.facts) >= allocSummaryCap {
		return
	}
	for _, f := range w.facts {
		if f.pos == pos && f.desc == desc {
			return
		}
	}
	w.facts = append(w.facts, allocFact{desc: desc, pos: pos})
}

// buildAllocParents maps every node under the declaration to its parent.
func buildAllocParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// cold reports whether the node sits on a cold path: its innermost
// enclosing statement list terminates by returning a non-nil error,
// panicking, or calling a module noreturn function. Error-formatting
// allocations on failure branches are the intended exemption.
func (w *allocWalk) cold(n ast.Node) bool {
	// Find the innermost enclosing statement, then its enclosing list.
	for cur := n; cur != nil; cur = w.parents[cur] {
		stmt, ok := cur.(ast.Stmt)
		if !ok {
			continue
		}
		parent := w.parents[stmt]
		var list []ast.Stmt
		switch p := parent.(type) {
		case *ast.BlockStmt:
			list = p.List
		case *ast.CaseClause:
			list = p.Body
		case *ast.CommClause:
			list = p.Body
		default:
			continue
		}
		if w.listIsCold(list) {
			return true
		}
		// Only the innermost list decides; an allocation in a hot inner
		// block of a function whose tail returns an error is still hot.
		return false
	}
	return false
}

// listIsCold reports whether a statement list ends in a cold terminator.
func (w *allocWalk) listIsCold(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		if len(last.Results) == 0 {
			return false
		}
		res := last.Results[len(last.Results)-1]
		if w.info == nil {
			return false
		}
		tv, ok := w.info.Types[res]
		if !ok || tv.Type == nil {
			return false
		}
		if !isErrorType(tv.Type) {
			return false
		}
		// "return nil" on the error slot is the success path.
		if id, isIdent := ast.Unparen(res).(*ast.Ident); isIdent && id.Name == "nil" {
			return false
		}
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := w.info.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
		res := w.c.mc.Graph.Resolve(w.info, call)
		return res.Static != nil && w.c.noreturn[res.Static.Key]
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.TypeString(t, nil) == "error"
}

// node classifies one AST node as allocating or not.
func (w *allocWalk) node(n ast.Node) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		if !w.cold(n) {
			w.add("composite literal allocates", n.Pos())
		}
	case *ast.GoStmt:
		if !w.cold(n) {
			w.add("goroutine launch allocates", n.Pos())
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD && w.info != nil {
			if tv, ok := w.info.Types[n]; ok && tv.Type != nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					if tv.Value == nil && !w.cold(n) { // constant folding is free
						w.add("string concatenation allocates", n.Pos())
					}
				}
			}
		}
	case *ast.CallExpr:
		w.callNode(n)
	}
}

// callNode classifies a call: builtins, conversions, module callees (by
// summary), and external callees (by whitelist).
func (w *allocWalk) callNode(call *ast.CallExpr) {
	res := w.c.mc.Graph.Resolve(w.info, call)
	switch {
	case res.Builtin != "":
		switch res.Builtin {
		case "make", "new":
			if !w.cold(call) {
				w.add(res.Builtin+" allocates", call.Pos())
			}
		}
	case res.Conversion:
		if w.allocatingConversion(call) && !w.cold(call) {
			w.add("string conversion allocates", call.Pos())
		}
	case res.Lit != nil:
		// Immediately invoked literal: its body is walked by the outer
		// Inspect before descent is cut (the literal value itself never
		// escapes), so nothing extra here.
	case res.Static != nil:
		if facts := w.c.summaries[res.Static.Key]; len(facts) > 0 && !w.cold(call) {
			w.add(fmt.Sprintf("call to %s may allocate (%s)", res.Static.Name, facts[0].desc), call.Pos())
		}
	case len(res.CHA) > 0:
		for _, target := range res.CHA {
			if facts := w.c.summaries[target.Key]; len(facts) > 0 && !w.cold(call) {
				w.add(fmt.Sprintf("call to %s may allocate (%s)", target.Name, facts[0].desc), call.Pos())
				break
			}
		}
	case res.Ext != nil:
		if !allocFreeExt(res.Ext) && !w.cold(call) {
			w.add(fmt.Sprintf("call to %s may allocate", extName(res.Ext)), call.Pos())
		}
	case res.Dynamic:
		if !w.cold(call) {
			w.add("call through a function value may allocate", call.Pos())
		}
	}
}

// allocatingConversion reports string<->[]byte/[]rune conversions, the
// conversions that copy.
func (w *allocWalk) allocatingConversion(call *ast.CallExpr) bool {
	if w.info == nil || len(call.Args) != 1 {
		return false
	}
	dst, ok := w.info.Types[ast.Unparen(call.Fun)]
	if !ok || dst.Type == nil {
		return false
	}
	src, ok := w.info.Types[call.Args[0]]
	if !ok || src.Type == nil {
		return false
	}
	if src.Value != nil {
		return false // constant conversions are folded
	}
	return (isStringy(dst.Type) && isByteSlice(src.Type)) ||
		(isByteSlice(dst.Type) && isStringy(src.Type))
}

func isStringy(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8)
}

// allocFreeExt whitelists standard-library callees known not to allocate.
func allocFreeExt(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	path, name := pkg.Path(), fn.Name()
	switch path {
	case "sync", "sync/atomic", "math", "math/bits", "encoding/binary":
		return true
	case "bytes":
		switch name {
		case "Compare", "Equal", "HasPrefix", "HasSuffix", "IndexByte", "Contains":
			return true
		}
	case "strings":
		switch name {
		case "Compare", "EqualFold", "HasPrefix", "HasSuffix", "IndexByte", "Contains", "Index":
			return true
		}
	case "time":
		// Durations and instants are values; Now/Since do not heap-allocate.
		return true
	case "errors":
		switch name {
		case "Is", "As":
			return true
		}
	case "sort":
		switch name {
		case "SearchInts", "SearchStrings", "Search":
			return true
		}
	}
	return false
}

func extName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return types.TypeString(deref(sig.Recv().Type()), nil) + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

func fsetOf(mc *moduleContext) *token.FileSet {
	for _, p := range mc.Pkgs {
		if p.Fset != nil {
			return p.Fset
		}
	}
	return nil
}
