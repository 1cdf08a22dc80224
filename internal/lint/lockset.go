package lint

// lockset.go holds the lock machinery shared by lockcheck, deadlockcheck
// and racecheck: the one recogniser of Lock/Unlock calls, the class naming
// scheme for mutexes (one class per struct field across all instances, one
// per package-level or local variable), and racecheck's entry-lockset
// fixpoint — the set of locks every caller provably holds when a unit is
// entered, intersected over all recorded invocation sites.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockOp is what a Lock-family method call does to its mutex.
type lockOp int

const (
	lockAcquire     lockOp = iota + 1 // Lock, TryLock
	lockAcquireRead                   // RLock, TryRLock
	lockRelease                       // Unlock, RUnlock
)

// lockCall recognises x.Lock(), x.RLock(), x.TryLock(), x.TryRLock(),
// x.Unlock() and x.RUnlock() on a sync.Mutex or sync.RWMutex, returning the
// mutex expression x and what the call does to it. When x has no type
// information (its package failed to type-check), a name ending in "mu"
// marks a mutex.
func lockCall(info *types.Info, call *ast.CallExpr) (mu ast.Expr, op lockOp, ok bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, 0, false
	}
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		op = lockAcquire
	case "RLock", "TryRLock":
		op = lockAcquireRead
	case "Unlock", "RUnlock":
		op = lockRelease
	default:
		return nil, 0, false
	}
	if tv, typed := info.Types[sel.X]; typed && tv.Type != nil {
		return sel.X, op, isMutexType(deref(tv.Type))
	}
	name := ""
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		name = x.Sel.Name
	case *ast.Ident:
		name = x.Name
	}
	return sel.X, op, strings.HasSuffix(strings.ToLower(name), "mu")
}

func isMutexType(t types.Type) bool {
	s := types.TypeString(t, nil)
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// mutexClassOf names the lock denoted by a mutex-typed expression. Struct
// fields are classed by owning named type + field name (every instance
// shares one class — what lock-order and lockset analysis want);
// package-level and local variables by their object. The second result is
// a short display name for messages.
func mutexClassOf(info *types.Info, fset *token.FileSet, e ast.Expr) (class, display string, ok bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		tv, ok := info.Types[e.X]
		if !ok {
			return "", "", false
		}
		named, ok := deref(tv.Type).(*types.Named)
		if !ok {
			return "", "", false
		}
		return named.String() + "." + e.Sel.Name, named.Obj().Name() + "." + e.Sel.Name, true
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return "", "", false
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name(), obj.Name(), true
		}
		pos := fset.Position(obj.Pos())
		return posClass(obj.Name(), pos), obj.Name(), true
	}
	return "", "", false
}

func posClass(name string, pos token.Position) string {
	return name + "@" + pos.Filename + ":" + itoa(pos.Line) + ":" + itoa(pos.Column)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// entryFacts is the must-held lockset at a unit's entry — the intersection
// of the locks held at every recorded invocation site — plus the
// owned-argument mask: which receiver/parameters (bit 0 = receiver, bit
// i+1 = parameter i) receive a caller-owned object at EVERY site, so the
// callee's accesses through them stay in the init exclusion. seen
// distinguishes "no invocation observed yet" (top: the unit is skipped)
// from "invoked with nothing held" (bottom: empty set).
type entryFacts struct {
	seen bool
	held map[string]bool
	mask uint64

	// ownedObjs holds, for literals, the captured objects owned by the
	// invoker/spawner at EVERY site: at a go statement ownership is handed
	// off to the goroutine, at a synchronous invocation the encloser is
	// suspended while the literal runs — either way the literal's accesses
	// through them stay in the init exclusion.
	objsSeen  bool
	ownedObjs map[types.Object]bool
}

func (f *entryFacts) invoke(held map[string]bool, mask uint64) {
	if !f.seen {
		f.seen = true
		f.held = cloneSet(held)
		f.mask = mask
		return
	}
	f.mask &= mask
	for k := range f.held {
		if !held[k] {
			delete(f.held, k)
		}
	}
}

func (f *entryFacts) handoff(objs map[types.Object]bool) {
	if !f.objsSeen {
		f.objsSeen = true
		f.ownedObjs = make(map[types.Object]bool, len(objs))
		for o := range objs {
			f.ownedObjs[o] = true
		}
		return
	}
	for o := range f.ownedObjs {
		if !objs[o] {
			delete(f.ownedObjs, o)
		}
	}
}

func (f *entryFacts) equal(o *entryFacts) bool {
	if f.seen != o.seen || f.mask != o.mask || f.objsSeen != o.objsSeen ||
		len(f.held) != len(o.held) || len(f.ownedObjs) != len(o.ownedObjs) {
		return false
	}
	for k := range f.held {
		if !o.held[k] {
			return false
		}
	}
	for obj := range f.ownedObjs {
		if !o.ownedObjs[obj] {
			return false
		}
	}
	return true
}

// raceEntry keeps entry facts in two evidence tiers: real facts come from
// invocation sites in units reachable from concrete contexts
// (main/go/callback); assumed facts come from units live only under the
// uncalled-exported-API assumption. A unit with real sites is entered with
// the real tier — a hypothetical unlocked API entry must not dissolve the
// locksets observed on every concrete path (the rbtree pattern: Insert is
// dead in-module, its helpers are reached for real only under DB.mu).
type raceEntry struct {
	real entryFacts
	asm  entryFacts
}

// facts returns the tier a walk of the unit should use.
func (e *raceEntry) facts() *entryFacts {
	if e.real.seen || e.real.objsSeen {
		return &e.real
	}
	return &e.asm
}

// raceEntryTable accumulates invocation records during one module pass and
// resolves them into next-pass entry locksets. It also carries the
// returns-fresh summaries: retFresh bit i means result i of the unit is a
// fresh allocation on every return path (a constructor), so callers may
// treat the value as owned. Unvisited units are optimistic (all-fresh);
// bits only clear, so the fixpoint converges downward.
type raceEntryTable struct {
	cur  map[string]*raceEntry // entry used by the running pass
	next map[string]*raceEntry // intersection accumulated this pass

	curRet  map[string]uint64
	nextRet map[string]uint64
}

func newRaceEntryTable() *raceEntryTable {
	return &raceEntryTable{cur: make(map[string]*raceEntry), curRet: make(map[string]uint64)}
}

// begin resets the accumulator for a new pass.
func (t *raceEntryTable) begin() {
	t.next = make(map[string]*raceEntry)
	t.nextRet = make(map[string]uint64)
}

// ret folds one exit's returns-fresh mask into the unit's summary.
func (t *raceEntryTable) ret(unitID string, mask uint64) {
	if m, ok := t.nextRet[unitID]; ok {
		t.nextRet[unitID] = m & mask
		return
	}
	t.nextRet[unitID] = mask
}

// retFreshFor returns the returns-fresh mask of a unit, optimistically
// all-ones before the unit's first walk.
func (t *raceEntryTable) retFreshFor(unitID string) uint64 {
	if m, ok := t.curRet[unitID]; ok {
		return m
	}
	return ^uint64(0)
}

func (t *raceEntryTable) nextEntry(unitID string) *raceEntry {
	e := t.next[unitID]
	if e == nil {
		e = &raceEntry{}
		t.next[unitID] = e
	}
	return e
}

// invoke records one invocation of unitID with the given held set and
// owned-argument mask, in the real or assumed tier.
func (t *raceEntryTable) invoke(unitID string, held map[string]bool, mask uint64, assumed bool) {
	e := t.nextEntry(unitID)
	if assumed {
		e.asm.invoke(held, mask)
		return
	}
	e.real.invoke(held, mask)
}

// handoff records the owned captures at one invocation of a literal (a go
// spawn or a synchronous call), intersected across sites within a tier.
func (t *raceEntryTable) handoff(unitID string, objs map[types.Object]bool, assumed bool) {
	e := t.nextEntry(unitID)
	if assumed {
		e.asm.handoff(objs)
		return
	}
	e.real.handoff(objs)
}

// commit installs the accumulated entries, reporting whether anything
// changed (the fixpoint driver stops when a pass is a no-op).
func (t *raceEntryTable) commit() bool {
	changed := len(t.next) != len(t.cur) || len(t.nextRet) != len(t.curRet)
	if !changed {
		for id, m := range t.nextRet {
			if o, ok := t.curRet[id]; !ok || o != m {
				changed = true
				break
			}
		}
	}
	t.curRet = t.nextRet
	t.nextRet = nil
	if !changed {
		for id, e := range t.next {
			o := t.cur[id]
			if o == nil || !o.real.equal(&e.real) || !o.asm.equal(&e.asm) {
				changed = true
				break
			}
		}
	}
	t.cur = t.next
	t.next = nil
	return changed
}

// entryFor returns the accumulated entry facts for a unit (nil when no
// invocation has been observed yet).
func (t *raceEntryTable) entryFor(unitID string) *raceEntry {
	return t.cur[unitID]
}

// raceKind classifies a shared-state class.
type raceKind int

const (
	raceField  raceKind = iota // struct field, one class per type+field
	raceGlobal                 // package-level variable
	raceLocal                  // closure-captured local variable
)

// raceAccess is one recorded access to a shared-state class. assumed marks
// accesses made in units live only under the uncalled-exported-API
// assumption: they are not evidence of a concrete execution.
type raceAccess struct {
	class   string
	write   bool
	pos     token.Pos
	held    map[string]bool
	unitID  string
	assumed bool
}

// raceClassInfo is the metadata of one shared-state class, filled in when
// its first access is recorded.
type raceClassInfo struct {
	kind    raceKind
	display string
	owner   string // fields: owning named type's full string, else ""
	declPos token.Pos
}

// intersectHeld intersects the held sets of a class's accesses. The
// boolean reports whether any access was seen.
func intersectHeld(accs []raceAccess) (map[string]bool, bool) {
	if len(accs) == 0 {
		return nil, false
	}
	out := cloneSet(accs[0].held)
	for _, a := range accs[1:] {
		for k := range out {
			if !a.held[k] {
				delete(out, k)
			}
		}
	}
	return out, true
}

// unionHeld unions the held sets of a class's accesses (for "observed
// locks" message detail).
func unionHeld(accs []raceAccess) map[string]bool {
	out := make(map[string]bool)
	for _, a := range accs {
		for k := range a.held {
			out[k] = true
		}
	}
	return out
}

// classOwner returns the class string minus its last segment: the owning
// struct of a field class, used to prefer a same-struct mutex when
// suggesting a guard.
func classOwner(class string) string {
	for i := len(class) - 1; i >= 0; i-- {
		if class[i] == '.' {
			return class[:i]
		}
	}
	return ""
}

// pickGuard chooses the guard to suggest from a non-empty intersection:
// a same-struct mutex first, then the lexicographically first class. The
// returned name is the annotation text (the bare field name for a
// same-struct mutex, the display name otherwise).
func pickGuard(inter map[string]bool, fieldClass string, display map[string]string) string {
	classes := sortedKeys(inter)
	owner := classOwner(fieldClass)
	for _, lc := range classes {
		if classOwner(lc) == owner {
			return lc[len(owner)+1:]
		}
	}
	lc := classes[0]
	if d, ok := display[lc]; ok {
		return d
	}
	return lc
}

// sortedKeys returns a string-keyed map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
