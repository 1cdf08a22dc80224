package lint

// lockset.go holds the lock machinery lockcheck and deadlockcheck share:
// the one recogniser of Lock/Unlock calls and the class naming scheme for
// mutexes (one class per struct field across all instances, one per
// package-level or local variable).

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
// shares one class — what lock-order analysis wants);
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

// sortedKeys returns a string-keyed map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
