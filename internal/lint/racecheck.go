package lint

// racecheck is an Eraser-style static lockset race analyzer. It tags every
// function and function literal with the goroutine contexts that can reach
// it (callgraph.BuildContexts), runs the escape/lockset walker (escape.go)
// over each reachable unit to a module fixpoint on entry locksets, then
// intersects the locks held at every access to each shared-state class:
// a class written from two or more contexts with an empty intersection is
// a race finding. In guard-inference mode the complement is reported
// instead — classes with a CONSISTENT guard but no "guarded by" annotation
// get a suggested annotation, so lockcheck's corpus can grow from
// evidence.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"godiva/internal/lint/callgraph"
)

var racecheckAnalyzer = &analyzer{
	name: "racecheck",
	doc: "static lockset race analysis: shared state written from two or more " +
		"goroutine contexts must have a consistently held lock",
	run: func(mc *moduleContext) []Finding {
		return newRaceChecker(mc).run(false)
	},
}

// racePasses bounds the entry-lockset fixpoint (deep call chains widen the
// walked-unit frontier one level per pass; the table stabilizes earlier on
// real code).
const racePasses = 12

type raceChecker struct {
	mc   *moduleContext
	fset *token.FileSet
	cm   *callgraph.ContextMap

	entries  *raceEntryTable
	accesses map[string][]raceAccess
	classes  map[string]raceClassInfo
	display  map[string]string // lock class -> short display name

	// everShared holds locals captured by any concurrent literal, found on
	// earlier passes; inherited (synchronous) literals use it to decide
	// whether an outer access is worth recording.
	everShared map[types.Object]bool

	unitsByID map[string]*callgraph.Unit
	pkgPaths  map[string]bool
	captures  map[*ast.FuncLit][]types.Object
	recording bool
}

func newRaceChecker(mc *moduleContext) *raceChecker {
	c := &raceChecker{
		mc:         mc,
		entries:    newRaceEntryTable(),
		accesses:   make(map[string][]raceAccess),
		classes:    make(map[string]raceClassInfo),
		display:    make(map[string]string),
		everShared: make(map[types.Object]bool),
		unitsByID:  make(map[string]*callgraph.Unit),
		pkgPaths:   make(map[string]bool),
		captures:   make(map[*ast.FuncLit][]types.Object),
	}
	for _, p := range mc.Pkgs {
		if c.fset == nil {
			c.fset = p.Fset
		}
		if p.Types != nil {
			c.pkgPaths[p.Types.Path()] = true
		}
	}
	return c
}

// modulePkg reports whether a types.Package belongs to the analyzed
// module. Compared by path: cross-package references resolve through the
// import cache, whose *types.Package differs from the lint-checked one.
func (c *raceChecker) modulePkg(pkg *types.Package) bool {
	return pkg != nil && c.pkgPaths[pkg.Path()]
}

func (c *raceChecker) run(infer bool) []Finding {
	if c.fset == nil {
		return nil
	}
	c.cm = c.mc.Graph.BuildContexts(c.fset)
	for _, u := range c.cm.Units() {
		c.unitsByID[u.ID] = u
	}
	for pass := 0; pass < racePasses; pass++ {
		c.entries.begin()
		for _, u := range c.cm.Units() {
			c.walkUnit(u, false)
		}
		if !c.entries.commit() {
			break
		}
	}
	c.recording = true
	c.entries.begin()
	for _, u := range c.cm.Units() {
		c.walkUnit(u, true)
	}
	if infer {
		return c.inferGuards()
	}
	return c.report()
}

// walkUnit runs the escape/lockset walker over one unit with its entry
// lockset and owned parameters.
func (c *raceChecker) walkUnit(u *callgraph.Unit, rec bool) {
	if u.Body == nil || u.Pkg.Info == nil {
		return
	}
	if len(c.cm.Of(u)) == 0 {
		return // unreachable from any context root
	}
	if u.Fn != nil && u.Fn.Decl.Recv == nil && u.Fn.Decl.Name.Name == "init" {
		return // package init happens-before main
	}
	e := c.entries.entryFor(u.ID)
	var facts *entryFacts
	if e != nil {
		facts = e.facts()
	}
	var held map[string]bool
	var mask uint64
	var handoff map[types.Object]bool
	if c.cm.IsRoot(u) {
		// Entered directly by a goroutine/callback/exported call: no locks
		// can be assumed, except the *Locked naming convention.
		if u.Fn != nil {
			if class, ok := lockedEntryClass(u.Fn); ok {
				held = map[string]bool{class: true}
			}
		}
		// Ownership facts recorded at spawn sites are trusted only when
		// every entry into the unit is a visible go statement: exported
		// entry points have invisible callers, callback seams unknown
		// invocation sites.
		if facts != nil && c.goRootedOnly(u) {
			mask = facts.mask
			if facts.objsSeen {
				handoff = facts.ownedObjs
			}
		}
	} else if facts == nil || (!facts.seen && !facts.objsSeen) {
		return // no invocation recorded yet; a later pass reaches it
	} else {
		held, mask = facts.held, facts.mask
		if facts.objsSeen {
			// Every invocation site of a non-root unit is visible, so the
			// intersected capture handoff is trusted.
			handoff = facts.ownedObjs
		}
	}
	st := newRaceState()
	for k := range held {
		st.held[k] = true
	}
	params := unitParams(u)
	for i, v := range params {
		if v == nil {
			continue
		}
		if valueOwnedType(v.Type()) || mask&(1<<uint(i)) != 0 {
			st.owned[v] = true
		}
	}
	for _, v := range namedResults(u) {
		st.owned[v] = true // result variables are locals of this frame
	}
	for obj := range handoff {
		st.owned[obj] = true
	}
	w := &raceWalk{
		c:       c,
		u:       u,
		info:    u.Pkg.Info,
		rec:     rec && c.recording,
		results: resultVars(u),
		assumed: c.cm.AssumedOnly(u),
	}
	if u.Lit != nil {
		w.concurrent = c.cm.Concurrent(u.Lit)
		w.outer = make(map[types.Object]bool)
		for _, obj := range c.litCaptures(u.Lit, u.Pkg.Info) {
			w.outer[obj] = true
		}
	}
	runDataflow(c.mc.cfgOf(u.Body), st, w, rec)
}

// goRootedOnly reports whether every context rooted at u is a go
// statement: unexported functions and literals spawned only via `go`, with
// no exported/callback entry. Only then are spawn-site ownership facts
// (owned-argument mask, capture handoff) trusted.
func (c *raceChecker) goRootedOnly(u *callgraph.Unit) bool {
	if c.cm.MainRooted(u) {
		return false
	}
	if u.Lit != nil {
		return c.cm.Role(u.Lit) == callgraph.LitGo
	}
	for _, ctx := range c.cm.RootContexts(u) {
		if !strings.HasPrefix(ctx.Desc, "go ") {
			return false
		}
	}
	return true
}

// resultVars lists a unit's result variables by result index (nil for
// unnamed slots), for the returns-fresh summary.
func resultVars(u *callgraph.Unit) []*types.Var {
	var ft *ast.FuncType
	if u.Fn != nil {
		ft = u.Fn.Decl.Type
	} else {
		ft = u.Lit.Type
	}
	if ft.Results == nil {
		return nil
	}
	var out []*types.Var
	for _, f := range ft.Results.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			v, _ := u.Pkg.Info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// namedResults lists a unit's named result variables.
func namedResults(u *callgraph.Unit) []*types.Var {
	var ft *ast.FuncType
	if u.Fn != nil {
		ft = u.Fn.Decl.Type
	} else {
		ft = u.Lit.Type
	}
	if ft.Results == nil {
		return nil
	}
	var out []*types.Var
	for _, f := range ft.Results.List {
		for _, name := range f.Names {
			if v, ok := u.Pkg.Info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// unitParams lists a unit's receiver and parameters in owned-mask bit
// order: index 0 the receiver (nil for none), index i+1 parameter i.
func unitParams(u *callgraph.Unit) []*types.Var {
	info := u.Pkg.Info
	out := []*types.Var{nil}
	var ft *ast.FuncType
	if u.Fn != nil {
		ft = u.Fn.Decl.Type
		if r := u.Fn.Decl.Recv; r != nil && len(r.List) > 0 && len(r.List[0].Names) > 0 {
			if v, ok := info.Defs[r.List[0].Names[0]].(*types.Var); ok {
				out[0] = v
			}
		}
	} else {
		ft = u.Lit.Type
	}
	if ft.Params == nil {
		return out
	}
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			v, _ := info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// litCaptures lists the local variables a literal's body references that
// are declared outside it, in declaration-position order (memoized).
func (c *raceChecker) litCaptures(lit *ast.FuncLit, info *types.Info) []types.Object {
	if objs, ok := c.captures[lit]; ok {
		return objs
	}
	seen := make(map[types.Object]bool)
	var out []types.Object
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level, not a capture
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	c.captures[lit] = out
	return out
}

// recordAccess stores one shared access (record pass only).
func (c *raceChecker) recordAccess(acc raceAccess, info raceClassInfo) {
	if _, ok := c.classes[acc.class]; !ok {
		c.classes[acc.class] = info
	}
	c.accesses[acc.class] = append(c.accesses[acc.class], acc)
}

// contextSpread returns the concrete contexts reaching a class's accesses
// and the effective concurrency count (a Multi context counts twice: two
// instances of the same goroutine body race with each other). Assumed API
// contexts are not evidence and are skipped.
func (c *raceChecker) contextSpread(accs []raceAccess) ([]*callgraph.Context, int) {
	ids := make(map[int]bool)
	for _, a := range accs {
		u := c.unitsByID[a.unitID]
		if u == nil {
			continue
		}
		for _, ctx := range c.cm.Of(u) {
			if ctx.Assumed {
				continue
			}
			ids[ctx.ID] = true
		}
	}
	ordered := make([]int, 0, len(ids))
	for id := range ids {
		ordered = append(ordered, id)
	}
	sort.Ints(ordered)
	var ctxs []*callgraph.Context
	count := 0
	for _, id := range ordered {
		ctx := c.cm.Contexts[id]
		ctxs = append(ctxs, ctx)
		count++
		if ctx.Multi {
			count++
		}
	}
	return ctxs, count
}

func describeContexts(ctxs []*callgraph.Context) string {
	var parts []string
	for _, ctx := range ctxs {
		d := ctx.Desc
		if ctx.Multi {
			d += " (multi)"
		}
		parts = append(parts, d)
		if len(parts) == 3 && len(ctxs) > 3 {
			parts = append(parts, fmt.Sprintf("+%d more", len(ctxs)-3))
			break
		}
	}
	return strings.Join(parts, ", ")
}

// report emits race findings. A class fires when, over its concrete
// (non-assumed) accesses:
//   - two or more concrete contexts reach it, at least one access writes;
//   - the WRITES have an empty lockset intersection (inconsistently locked
//     writes are Eraser's race signal; consistently locked writes with
//     lock-free reads are the initialize-under-lock / read-shared
//     publication idiom and are demoted);
//   - for field and global classes, there is locking evidence (some access
//     held a lock — the inconsistency signal) or lexical spawn evidence (a
//     go literal and its encloser, or two sibling go literals, touch the
//     class). Classes never locked anywhere and never shared across a
//     visible spawn are reached only through heap paths the class-based
//     abstraction cannot tell apart (per-goroutine handles, channel-
//     published results, refcounted payloads), so they are not reported.
func (c *raceChecker) report() []Finding {
	var out []Finding
	for _, class := range sortedKeys(c.classes) {
		accs := concreteAccesses(c.accesses[class])
		sort.Slice(accs, func(i, j int) bool { return accs[i].pos < accs[j].pos })
		ctxs, count := c.contextSpread(accs)
		if count < 2 {
			continue
		}
		var writes []raceAccess
		for _, a := range accs {
			if a.write {
				writes = append(writes, a)
			}
		}
		if len(writes) == 0 {
			continue // read-only sharing is race-free
		}
		wInter, _ := intersectHeld(writes)
		if len(wInter) > 0 {
			continue // writes consistently guarded (read-shared publication)
		}
		info := c.classes[class]
		union := unionHeld(accs)
		if info.kind != raceLocal && len(union) == 0 && !c.goLitOverlap(accs) {
			continue // no locking or lexical spawn evidence
		}
		observed := ""
		if len(union) > 0 {
			var names []string
			for _, lc := range sortedKeys(union) {
				names = append(names, c.displayOf(lc))
			}
			observed = "; locks observed at some accesses: " + strings.Join(names, ", ")
		}
		out = append(out, Finding{
			Pos:      c.fset.Position(writes[0].pos),
			Analyzer: "racecheck",
			Message: fmt.Sprintf("%s is written with no consistently held lock but is reachable from %d goroutine contexts (%s)%s",
				info.display, count, describeContexts(ctxs), observed),
		})
	}
	sortFindings(out)
	return out
}

// concreteAccesses drops accesses recorded in assumed-only units.
func concreteAccesses(accs []raceAccess) []raceAccess {
	out := make([]raceAccess, 0, len(accs))
	for _, a := range accs {
		if !a.assumed {
			out = append(out, a)
		}
	}
	return out
}

// goLitOverlap reports lexical spawn evidence for a class: some access is
// inside a go-statement literal whose lexical encloser (transitively) also
// accesses the class, or two go literals under a common encloser both
// access it. Unlike heap reachability this pins the SAME instance on both
// sides of the spawn.
func (c *raceChecker) goLitOverlap(accs []raceAccess) bool {
	units := make(map[string]*callgraph.Unit)
	for _, a := range accs {
		if u := c.unitsByID[a.unitID]; u != nil {
			units[a.unitID] = u
		}
	}
	goAnc := make(map[string]map[string]bool)
	for id, u := range units {
		if u.Lit != nil && c.cm.Role(u.Lit) == callgraph.LitGo {
			anc := make(map[string]bool)
			for e := u.Encl; e != nil; e = e.Encl {
				anc[e.ID] = true
			}
			goAnc[id] = anc
		}
	}
	if len(goAnc) == 0 {
		return false
	}
	for gid, anc := range goAnc {
		for id := range units {
			if id == gid {
				continue
			}
			if anc[id] {
				return true // the encloser itself touches the class
			}
			if anc2, ok := goAnc[id]; ok {
				for a := range anc {
					if anc2[a] {
						return true // sibling go literals, common encloser
					}
				}
			}
		}
	}
	return false
}

// inferGuards emits annotation suggestions: consistently guarded fields
// whose declarations lack a "guarded by" annotation.
func (c *raceChecker) inferGuards() []Finding {
	annotated := c.annotatedClasses()
	var out []Finding
	for _, class := range sortedKeys(c.classes) {
		info := c.classes[class]
		if info.kind != raceField || annotated[class] {
			continue
		}
		accs := concreteAccesses(c.accesses[class])
		_, count := c.contextSpread(accs)
		if count < 2 {
			continue
		}
		hasWrite := false
		for _, a := range accs {
			if a.write {
				hasWrite = true
				break
			}
		}
		if !hasWrite {
			continue
		}
		inter, ok := intersectHeld(accs)
		if !ok || len(inter) == 0 {
			continue
		}
		guard := pickGuard(inter, class, c.display)
		out = append(out, Finding{
			Pos:      c.fset.Position(info.declPos),
			Analyzer: "racecheck",
			Message: fmt.Sprintf("field %s is consistently guarded by %s across all contexts: add a \"guarded by %s\" annotation",
				info.display, guard, guard),
		})
	}
	sortFindings(out)
	return out
}

// displayOf returns the short display name of a lock class.
func (c *raceChecker) displayOf(class string) string {
	if d, ok := c.display[class]; ok {
		return d
	}
	return class
}

// annotatedClasses collects field classes that already carry a "guarded
// by" annotation, keyed by the shared class string scheme.
func (c *raceChecker) annotatedClasses() map[string]bool {
	out := make(map[string]bool)
	for _, p := range c.mc.Pkgs {
		for _, f := range p.Files {
			info := p.InfoFor(f)
			if info == nil {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				strct, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				obj := info.Defs[ts.Name]
				if obj == nil {
					return true
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					return true
				}
				for _, field := range strct.Fields.List {
					if !fieldAnnotated(field) {
						continue
					}
					for _, name := range field.Names {
						out[named.String()+"."+name.Name] = true
					}
				}
				return true
			})
		}
	}
	return out
}

func fieldAnnotated(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, cmt := range cg.List {
			if guardedRe.MatchString(cmt.Text) {
				return true
			}
		}
	}
	return false
}

// InferGuards runs racecheck in guard-inference mode over the packages
// matching the patterns, returning suggested "guarded by" annotations for
// consistently locked but unannotated fields.
func InferGuards(m *Module, patterns []string) ([]Finding, error) {
	dirs, err := m.ExpandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := m.LintPackage(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	mc := newModuleContext(pkgs)
	return newRaceChecker(mc).run(true), nil
}
