package lint

// lockset.go holds lockcheck's lock machinery: the one recogniser of
// Lock/Unlock calls and the mutex type test behind it.

import (
	"go/ast"
	"go/types"
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
