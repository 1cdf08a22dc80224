package core

import "fmt"

// unitState tracks a processing unit through its life cycle.
type unitState int

const (
	statePending  unitState = iota // queued for prefetch, not yet read
	stateReading                   // read function executing
	stateReady                     // resident in memory, pinned
	stateFinished                  // resident in memory, evictable (LRU)
	stateFailed                    // read function returned an error or panicked
	stateDeleted                   // removed by DeleteUnit or eviction

	// stateEvicted is used only in the event log, to distinguish cache
	// evictions from explicit deletions (both end in stateDeleted).
	stateEvicted
)

func (s unitState) String() string {
	switch s {
	case statePending:
		return "pending"
	case stateReading:
		return "reading"
	case stateReady:
		return "ready"
	case stateFinished:
		return "finished"
	case stateFailed:
		return "failed"
	case stateDeleted:
		return "deleted"
	case stateEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("unitState(%d)", int(s))
	}
}

// unit is a processing unit: a named set of records brought into or evicted
// from the GODIVA database as a whole (paper §3.2). It is the granularity of
// background I/O, caching and eviction.
// Every mutable unit field is guarded by the owning DB's mu; the unit has no
// lock of its own. The only exception is read, which is also accessed by the
// goroutine that owns the unit's stateReading window (see runRead).
type unit struct {
	name    string    // immutable after creation
	state   unitState // guarded by db.mu
	read    ReadFunc  // guarded by db.mu; also read by the owning reader goroutine
	records []*Record // guarded by db.mu
	memory  int64     // bytes charged by this unit's records; guarded by db.mu
	refs    int       // consumers between WaitUnit/ReadUnit and FinishUnit; guarded by db.mu
	err     error     // terminal read error (stateFailed); guarded by db.mu

	// everAcquired marks that some consumer has pinned the unit before, so
	// later acquisitions of a still-Ready unit count as cache hits.
	// Guarded by db.mu.
	everAcquired bool

	// hinted marks a finished unit that AddUnit re-added and no consumer
	// has acquired since: eviction re-queues it rather than dropping it.
	// Guarded by db.mu.
	hinted bool

	// waiters counts goroutines blocked in WaitUnit/ReadUnit on this unit;
	// the deadlock detector only considers waiters on unproduced units.
	// Guarded by db.mu.
	waiters int

	// inline marks a read running on an application thread (ReadUnit, or
	// WaitUnit in the single-thread library) rather than an I/O worker.
	// Guarded by db.mu.
	inline bool

	// worker is the index of the background I/O worker reading (or last to
	// read) this unit, -1 for inline reads and never-dispatched units.
	// Guarded by db.mu.
	worker int

	// memBlocked marks that this unit's read function is currently blocked
	// on memory inside reserveLocked; the deadlock detector uses it to tell
	// stalled producers from progressing ones. Guarded by db.mu.
	memBlocked bool

	// allocFailed records a memory-reservation failure (e.g. ErrDeadlock)
	// raised while this unit's read function ran, so the failure reaches
	// waiters even if the read function swallows the allocation error.
	// Guarded by db.mu.
	allocFailed error

	// stateCh is this unit's wait channel: lazily created by the first
	// waiter needing to sleep, closed and reset to nil on every state
	// transition (broadcast), so a wait observes exactly "the state changed
	// since I looked". Only waiters on this unit are woken — state changes
	// never disturb other units' waiters or memory waiters.
	// Guarded by db.mu.
	stateCh chan struct{}

	// Intrusive LRU list links; non-nil membership means the unit is in the
	// evictable list (stateFinished, refs == 0). Guarded by db.mu.
	lruPrev, lruNext *unit
	inLRU            bool // guarded by db.mu

	// releasers run once each, in registration order, when the unit's
	// records are released for good — deleted, evicted, failed, or swept by
	// Close — and its read function has returned (see Unit.OnRelease). Read
	// functions that donate borrowed memory register the donor's cleanup
	// here (e.g. closing an mmap'd file).
	releasers []func() // guarded by db.mu
}

// ReadFunc is a developer-supplied read function: it reads one processing
// unit's datasets from input files into the GODIVA database. The unit handle
// identifies which unit is being read (the paper passes the unit name back
// to the read function so one function can serve many units) and is the
// factory for the unit's records.
type ReadFunc func(u *Unit) error

// Unit is the handle a read function receives. Records created through the
// handle belong to the unit and are deleted together when the unit is
// deleted or evicted.
type Unit struct {
	db *DB
	u  *unit
}

// Name returns the processing unit's name.
func (x *Unit) Name() string { return x.u.name }

// DB returns the database the unit is being read into, for schema lookups
// and queries from within the read function.
func (x *Unit) DB() *DB { return x.db }

// OnRelease registers fn to run once the unit's records are released for
// good: when the unit is dropped from the database (DeleteUnit, cache
// eviction, or Close), or when this read fails and its records are
// discarded. It is the lifetime hook for donated memory: a read function
// that borrows mmap-backed slices into field buffers
// (Record.BorrowFieldBuffer) registers the mapping's Close here, so the
// donor outlives every borrowed view — including the read function's own:
// if Close sweeps the unit while its read function is still running, the
// hooks run when that function returns, not at the sweep.
//
// fn runs with the database lock held: it must not call back into the
// database and should do only prompt cleanup (close a file, unmap, release
// a pool entry). Hooks run exactly once each, in registration order; a
// failed unit that is read again starts with none.
func (x *Unit) OnRelease(fn func()) {
	x.db.mu.Lock()
	x.u.releasers = append(x.u.releasers, fn)
	x.db.mu.Unlock()
}

// NewRecord creates a record of a committed record type owned by this unit.
func (x *Unit) NewRecord(recType string) (*Record, error) {
	x.db.mu.Lock()
	defer x.db.mu.Unlock()
	return x.db.newRecordLocked(recType, x.u)
}

// --- intrusive LRU list (head = least recently used) ---
//
// The list is a DB field and its links live in unit structs, all guarded by
// db.mu; the *Locked method names mark that callers must hold it.

type lruList struct {
	head, tail *unit // guarded by db.mu
	n          int   // guarded by db.mu
}

func (l *lruList) pushMRULocked(u *unit) {
	if u.inLRU {
		return
	}
	u.lruPrev = l.tail
	u.lruNext = nil
	if l.tail != nil {
		l.tail.lruNext = u
	} else {
		l.head = u
	}
	l.tail = u
	u.inLRU = true
	l.n++
}

func (l *lruList) removeLocked(u *unit) {
	if !u.inLRU {
		return
	}
	if u.lruPrev != nil {
		u.lruPrev.lruNext = u.lruNext
	} else {
		l.head = u.lruNext
	}
	if u.lruNext != nil {
		u.lruNext.lruPrev = u.lruPrev
	} else {
		l.tail = u.lruPrev
	}
	u.lruPrev, u.lruNext = nil, nil
	u.inLRU = false
	l.n--
}

// popLRULocked removes and returns the least-recently-used unit, or nil.
func (l *lruList) popLRULocked() *unit {
	u := l.head
	if u != nil {
		l.removeLocked(u)
	}
	return u
}
