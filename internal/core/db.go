package core

import (
	"fmt"
	"sync"
	"time"

	"godiva/internal/rbtree"
)

// Options configures a GODIVA database.
type Options struct {
	// MemoryLimit is the maximum number of bytes of field-buffer payload
	// plus indexing overhead the database may hold, the paper's GBO
	// constructor argument (there given in MB). Zero means 256 MB.
	MemoryLimit int64

	// TraceUnits enables the unit event log (see UnitEvents): every unit
	// state transition is recorded with a timestamp.
	TraceUnits bool

	// BackgroundIO selects the multi-thread library of the paper when true:
	// a pool of I/O goroutines prefetches added units through their read
	// functions. When false the library behaves as the paper's single-thread
	// version: AddUnit only queues, and WaitUnit performs the pending read
	// inline, making every wait an explicit blocking read.
	BackgroundIO bool

	// IOWorkers sets the size of the background I/O worker pool used when
	// BackgroundIO is true. Zero means one worker — the paper's single I/O
	// thread — which preserves the paper's scheduling exactly. With N > 1
	// workers up to N unit reads are in flight at once: units are still
	// dispatched to workers in AddUnit order, but may complete out of
	// order. IOWorkers has no effect when BackgroundIO is false.
	IOWorkers int

	// Clock, when set, is what the database reads time from, starts its I/O
	// workers on and blocks through, so a simulator (platform.Machine) can
	// run it in virtual time. Nil means the host's: time.Now, go statements
	// and channel receives.
	Clock Clock
}

// Clock is the database's blocking-point seam. Every wait the database makes
// is on a close-only channel — nothing is ever sent on it — and Wait returns
// once ch is closed.
type Clock interface {
	Now() time.Time
	Go(fn func())
	Wait(ch <-chan struct{})
}

// DefaultMemoryLimit is used when Options.MemoryLimit is zero.
const DefaultMemoryLimit = 256 << 20

// DB is the GODIVA database — the paper's GBO (GODIVA Buffer Object). One DB
// manages the schemas, records, index, processing units and background I/O
// of one processor's local data. All methods are safe for concurrent use;
// per the paper each processor owns a private DB and no cross-processor
// communication happens inside the library.
//
// Locking (see DESIGN.md, "Locking architecture"): like the paper's library,
// the DB has one lock, db.mu, a sync.Mutex guarding all of its state,
// counters included. A goroutine that must block sleeps on one of three
// broadcast channels, each made by its first sleeper and closed under db.mu
// by the next event that can change the sleeper's outcome (waitChLocked,
// broadcast): a unit's stateCh for its waiters, memCh for reads out of
// memory, and queued for idle I/O workers.
type DB struct {
	mu sync.Mutex

	fieldTypes  map[string]*fieldType            // guarded by mu
	recordTypes map[string]*recordType           // guarded by mu
	indexes     map[string]*rbtree.Tree[*Record] // record type name -> key index; guarded by mu
	resident    map[*Record]struct{}             // records owned by no unit; guarded by mu
	keyBuf      []byte                           // the query path's composite-key scratch; guarded by mu

	units map[string]*unit // guarded by mu
	queue []*unit          // prefetch FIFO (statePending units, in AddUnit order); guarded by mu
	lru   lruList          // finished, unreferenced units, evictable; guarded by mu

	// memCh is where goroutines blocked in reserveLocked sleep. It is
	// broadcast only by events that can change a reservation's outcome —
	// either freeing memory or flipping the §3.3 deadlock verdict: bytes
	// released (releaseLocked), a unit becoming evictable (FinishUnit), the
	// limit changing (SetMemSpace), a new unit-state waiter registering, a
	// read ending (runRead — a progressing reader disappears), a unit dropped
	// (dropUnitLocked — queued work disappears), and Close. Guarded by mu.
	memCh chan struct{}

	// queued is where idle background I/O workers sleep. It is broadcast
	// when the prefetch queue gains a unit and at Close; busy workers
	// re-check the queue when their current read completes. Guarded by mu.
	queued chan struct{}

	mem    int64 // bytes charged; guarded by mu
	limit  int64 // guarded by mu
	closed bool  // guarded by mu

	ioWorkers     int             // background I/O pool size; 0 in single-thread mode; immutable after Open
	ioReading     int             // workers currently executing a read; guarded by mu
	ioBlocked     int             // workers currently blocked on memory in reserveLocked; guarded by mu
	inlineReading int             // application threads currently executing an inline read; guarded by mu
	inlineBlocked int             // inline readers currently blocked on memory; guarded by mu
	ioLive        int             // workers not yet exited; guarded by mu
	ioDone        chan struct{}   // closed by the last worker to exit; immutable after Open
	workers       []IOWorkerStats // per-worker counters, indexed by worker id; guarded by mu

	stats        Stats                 // operation counters; guarded by mu
	statsSources map[string]func() any // named external counter providers; guarded by mu

	traceEvents bool        // immutable after Open
	events      []UnitEvent // guarded by mu

	clock Clock // nil: the host's; immutable after Open
}

// Open creates a GODIVA database and, in background-I/O mode, starts its I/O
// worker pool. The caller must Close the database to stop the workers and
// release all records.
func Open(opts Options) *DB {
	limit := opts.MemoryLimit
	if limit == 0 {
		limit = DefaultMemoryLimit
	}
	workers := 0
	if opts.BackgroundIO {
		workers = opts.IOWorkers
		if workers < 1 {
			workers = 1
		}
	}
	ws := make([]IOWorkerStats, workers)
	for id := range ws {
		ws[id].Worker = id
	}
	db := &DB{
		fieldTypes:  make(map[string]*fieldType),
		recordTypes: make(map[string]*recordType),
		indexes:     make(map[string]*rbtree.Tree[*Record]),
		resident:    make(map[*Record]struct{}),
		units:       make(map[string]*unit),
		limit:       limit,
		ioWorkers:   workers,
		ioLive:      workers,
		ioDone:      make(chan struct{}),
		workers:     ws,
		traceEvents: opts.TraceUnits,
		clock:       opts.Clock,
	}
	for id := range workers {
		db.spawn(func() { db.ioLoop(id) })
	}
	return db
}

// Close stops the background I/O workers, deletes all units and records,
// and marks the database closed. Goroutines blocked in WaitUnit are woken
// with ErrClosed.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.closed = true
	// Wake everything that could be sleeping: blocked memory reservers and
	// unit waiters observe db.closed and return ErrClosed, idle workers
	// observe it and exit.
	broadcast(&db.memCh)
	broadcast(&db.queued)
	for _, u := range db.units {
		broadcast(&u.stateCh)
	}
	db.mu.Unlock()
	if db.ioWorkers > 0 {
		db.wait(db.ioDone)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("Close")
	for _, u := range db.units {
		db.dropUnitLocked(u)
	}
	for r := range db.resident {
		db.dropRecordLocked(r)
	}
	db.resident = map[*Record]struct{}{}
	return nil
}

// SetMemSpace adjusts the database memory limit at run time (paper §3.2).
// Lowering the limit evicts finished units until the new limit is met or
// nothing more can be evicted; raising it wakes any blocked readers.
func (db *DB) SetMemSpace(bytes int64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("SetMemSpace")
	db.limit = bytes
	for db.mem > db.limit {
		if !db.evictOneLocked() {
			break
		}
	}
	// A raised limit can let blocked reservers proceed even though no bytes
	// were released; a lowered one changes the hopeless-allocation bound.
	broadcast(&db.memCh)
}

// MemUsed returns the bytes currently charged against the memory limit.
func (db *DB) MemUsed() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.mem
}

// MemLimit returns the current memory limit in bytes.
func (db *DB) MemLimit() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.limit
}

// indexForLocked returns (creating on demand) the key index of a record
// type. Caller holds db.mu.
func (db *DB) indexForLocked(recType string) *rbtree.Tree[*Record] {
	idx, ok := db.indexes[recType]
	if !ok {
		idx = rbtree.New[*Record]()
		db.indexes[recType] = idx
	}
	return idx
}

// --- the clock ---

// now reads the database's clock.
func (db *DB) now() time.Time {
	if db.clock == nil {
		return time.Now()
	}
	return db.clock.Now()
}

// since returns the clock's time elapsed since t.
func (db *DB) since(t time.Time) time.Duration { return db.now().Sub(t) }

// spawn runs fn on a goroutine of the clock's.
func (db *DB) spawn(fn func()) {
	if db.clock == nil {
		go fn()
		return
	}
	db.clock.Go(fn)
}

// wait blocks until ch is closed. The caller holds no lock.
func (db *DB) wait(ch <-chan struct{}) {
	if db.clock == nil {
		<-ch
		return
	}
	db.clock.Wait(ch)
}

// --- broadcast channels ---

// waitChLocked sleeps until the next broadcast on *ch, making the channel if
// no one sleeps there yet. Caller holds db.mu; the lock is dropped while
// sleeping, so the caller re-checks its condition on return.
func (db *DB) waitChLocked(ch *chan struct{}) {
	if *ch == nil {
		*ch = make(chan struct{})
	}
	c := *ch
	db.mu.Unlock()
	db.wait(c)
	db.mu.Lock()
}

// broadcast wakes every goroutine sleeping on *ch; the next sleeper makes a
// fresh channel. Caller holds db.mu.
func broadcast(ch *chan struct{}) {
	if *ch != nil {
		close(*ch)
		*ch = nil
	}
}

// setStateLocked moves u to state to, records the transition in the event
// log and wakes the unit's waiters. Caller holds db.mu.
func (db *DB) setStateLocked(u *unit, to unitState) {
	db.recordEventLocked(u, u.state, to)
	u.state = to
	broadcast(&u.stateCh)
}

// reserveLocked charges need bytes against the memory limit, evicting
// finished units (LRU first) and blocking until space is available. owner is
// the unit whose read function is allocating, or nil for allocations made
// outside any read function. It returns ErrDeadlock when waiting can never
// succeed per the paper's §3.3 detection rule. Caller holds db.mu; the lock
// is dropped while waiting on memCh.
func (db *DB) reserveLocked(need int64, owner *unit) error {
	if need <= 0 {
		db.mem += need
		return nil
	}
	for db.mem+need > db.limit {
		if db.closed {
			return ErrClosed
		}
		if need > db.limit {
			return fmt.Errorf("%w: need %d bytes, limit %d", ErrNoMemory, need, db.limit)
		}
		if db.evictOneLocked() {
			continue
		}
		// Nothing evictable: decide between waiting for another thread to
		// free memory and declaring the paper's §3.3 deadlock. Detection
		// generalizes the paper's execution model of one main thread plus
		// one I/O thread to a pool of N workers (deadlockedLocked).
		if db.deadlockedLocked(owner) {
			db.stats.Deadlocks++
			if owner != nil {
				owner.allocFailed = ErrDeadlock
			}
			return ErrDeadlock
		}
		bgWorker := owner != nil && !owner.inline
		if bgWorker {
			db.ioBlocked++
		} else if owner != nil {
			db.inlineBlocked++
		}
		if owner != nil {
			owner.memBlocked = true
		}
		start := db.now()
		db.waitChLocked(&db.memCh)
		if owner != nil {
			owner.memBlocked = false
		}
		if bgWorker {
			db.ioBlocked--
			db.workers[owner.worker].BlockedTime += db.since(start)
		} else if owner != nil {
			db.inlineBlocked--
		}
	}
	db.mem += need
	db.stats.PeakBytes = max(db.stats.PeakBytes, db.mem)
	db.checkMemLocked("reserveLocked")
	return nil
}

// deadlockedLocked applies the paper's §3.3 deadlock rule, generalized from
// the paper's two-thread model to an N-worker I/O pool, when an allocation
// found memory exhausted with nothing evictable: the situation is hopeless
// when whoever could free memory is itself stuck. owner is the unit whose
// read function is allocating (nil for an allocation outside any read).
// With one worker the rule reduces exactly to the paper's. Caller holds
// db.mu.
func (db *DB) deadlockedLocked(owner *unit) bool {
	appThread := owner == nil || owner.inline
	if appThread && db.ioWorkers == 0 {
		// Allocation on the application thread in single-thread mode: no
		// library thread exists that could ever free memory, so waiting can
		// never succeed. For an inline read this is the paper's rule
		// verbatim; a plain allocation fails the same way rather than
		// waiting on a wake-up that cannot come.
		return true
	}
	if db.progressLocked(owner) {
		// Some other reader is still running, or an idle worker has pending
		// units to dispatch: that work may complete units whose consumers
		// free memory. Not yet hopeless.
		return false
	}
	if owner != nil && owner.inline {
		// An inline read is the paper's main thread performing a blocking
		// read. Nothing is progressing: no read anywhere will complete, so
		// no consumer will ever be woken to free memory, and workers never
		// free memory on their own. Under the paper's execution model no
		// other application thread exists either — waiting is hopeless.
		return true
	}
	if owner == nil {
		// Plain allocation outside any read. If another reader (worker or
		// inline) is already blocked on memory too, nobody is left to free
		// anything: with one worker this is exactly the paper's "I/O thread
		// blocked" condition. With no blocked reader the pool is merely
		// idle, and another application thread can still Delete or Finish
		// units — keep waiting.
		return db.ioBlocked > 0 || db.inlineBlocked > 0
	}
	// A pool worker is allocating and nothing else is progressing. Hopeless
	// if some consumer is provably stuck on a unit only this stalled pool
	// can produce: the application "neglected to delete processed units"
	// (paper §3.3).
	return db.stuckWaiterLocked(owner)
}

// progressLocked reports whether any thread other than the caller can still
// make progress that may lead to memory being freed: a pool worker or an
// inline reader executing a read without being blocked on memory, or an idle
// worker with pending units left to dispatch. owner identifies the caller
// (nil for a plain allocation) so its own read does not count as progress.
// Caller holds db.mu.
func (db *DB) progressLocked(owner *unit) bool {
	selfWorker, selfInline := 0, 0
	if owner != nil {
		if owner.inline {
			selfInline = 1
		} else {
			selfWorker = 1
		}
	}
	if db.ioReading-db.ioBlocked > selfWorker {
		return true
	}
	if db.inlineReading-db.inlineBlocked > selfInline {
		return true
	}
	return len(db.queue) > 0 && db.ioReading < db.ioWorkers
}

// stuckWaiterLocked reports whether some application goroutine is provably
// stuck on a unit that cannot be produced while the calling worker's
// allocation waits: a waiter on a pending unit with no idle worker left to
// dispatch it, a waiter on a unit whose read is blocked on memory (including
// the caller's own unit, owner, whose read is the allocation being decided),
// or an inline reader itself blocked on memory inside its read. Waiters on
// units being read by a still-progressing thread are transient — that read
// will complete and its consumers may free memory — and do not count, nor do
// waiters on already-ready units. Caller holds db.mu.
func (db *DB) stuckWaiterLocked(owner *unit) bool {
	for _, u := range db.units {
		switch u.state {
		case statePending:
			if u.waiters > 0 && db.ioReading >= db.ioWorkers {
				return true
			}
		case stateReading:
			if u.waiters > 0 && (u == owner || u.memBlocked) {
				return true
			}
			if u.inline && u.memBlocked {
				// The application thread reading this unit inline is its
				// own consumer, stuck even with no registered waiters.
				return true
			}
		}
	}
	return false
}

// releaseLocked returns n bytes to the memory budget and wakes the
// reservers on memCh — and only them: unit-state waiters cannot use memory
// and are not woken by memory traffic. Caller holds db.mu.
func (db *DB) releaseLocked(n int64) {
	db.mem -= n
	db.checkMemLocked("releaseLocked")
	if n > 0 {
		broadcast(&db.memCh)
	}
}

// evictOneLocked evicts the least-recently-used finished unit, dropping all
// of its records. It reports whether a unit was evicted. A unit AddUnit
// re-added while cached is still owed to a consumer, so it goes back to the
// tail of the prefetch queue instead of out of the database. Blocked
// reservers are woken by the memory release itself (releaseLocked, via
// dropRecordLocked). Caller holds db.mu.
func (db *DB) evictOneLocked() bool {
	u := db.lru.popLRULocked()
	if u == nil {
		return false
	}
	db.recordEventLocked(u, u.state, stateEvicted)
	db.stats.UnitsEvicted++
	if !u.hinted {
		db.dropUnitLocked(u)
		return true
	}
	db.dropRecordsLocked(u)
	db.runReleasersLocked(u)
	u.hinted = false
	u.everAcquired = false
	u.worker = -1
	db.setStateLocked(u, statePending)
	db.enqueueLocked(u)
	return true
}

// dropUnitLocked removes a unit and all of its records from the database.
// Caller holds db.mu.
func (db *DB) dropUnitLocked(u *unit) {
	reading := u.state == stateReading
	db.recordEventLocked(u, u.state, stateDeleted)
	db.unqueueLocked(u)
	db.lru.removeLocked(u)
	db.dropRecordsLocked(u)
	u.state = stateDeleted
	// No buffer references the unit's donated memory any more. A read
	// function still running (Close sweeps mid-read) may, though: runRead
	// runs the hooks when it returns.
	if !reading {
		db.runReleasersLocked(u)
	}
	broadcast(&u.stateCh)
	delete(db.units, u.name)
	// Dropping a unit can change the §3.3 verdict without releasing a byte —
	// deleting a pending unit shrinks the queue behind progressLocked's
	// idle-workers-with-queued-units clause — so blocked reservers must
	// re-run the detector even when releaseLocked had nothing to wake.
	broadcast(&db.memCh)
}

// dropRecordsLocked drops every record u owns and clears its charge. Caller
// holds db.mu.
func (db *DB) dropRecordsLocked(u *unit) {
	for _, r := range u.records {
		db.dropRecordLocked(r)
	}
	u.records = nil
	u.memory = 0
}

// runReleasersLocked runs u's release hooks, in registration order, and
// forgets them, so each runs exactly once. They run under db.mu by contract
// (Unit.OnRelease): prompt, non-reentrant cleanup only. Caller holds db.mu.
func (db *DB) runReleasersLocked(u *unit) {
	for _, fn := range u.releasers {
		fn()
	}
	u.releasers = nil
}

// getRecordLocked answers a key-lookup query, building the composite key in
// db.keyBuf so a fixed-size key lookup performs no allocation (see
// BenchmarkKeyLookup). Caller holds db.mu.
//
//godiva:noalloc
func (db *DB) getRecordLocked(recType string, keys []any) (*Record, error) {
	if db.closed {
		return nil, ErrClosed
	}
	rt, ok := db.recordTypes[recType]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRecordType, recType)
	}
	if !rt.committed {
		return nil, fmt.Errorf("%w: record type %q", ErrNotCommitted, recType)
	}
	key, err := rt.appendKeyForValues(db.keyBuf[:0], keys)
	if err != nil {
		return nil, err
	}
	db.keyBuf = key
	idx, found := db.indexes[recType]
	var r *Record
	if found {
		r, ok = idx.Get(key)
	} else {
		r, ok = nil, false
	}
	if !ok {
		return nil, fmt.Errorf("%w: record type %q", ErrNotFound, recType)
	}
	return r, nil
}

// GetRecord returns the committed record of the given type identified by the
// key values, in key-field insertion order.
func (db *DB) GetRecord(recType string, keys ...any) (*Record, error) {
	db.mu.Lock()
	r, err := db.getRecordLocked(recType, keys)
	db.mu.Unlock()
	return r, err
}

// GetFieldBuffer answers the paper's key-lookup query: it returns the data
// buffer of the named field in the record of the given type identified by
// the key values. The visualization code then accesses the buffer directly,
// as if it were a user-allocated array.
func (db *DB) GetFieldBuffer(recType, field string, keys ...any) (*Buffer, error) {
	db.mu.Lock()
	r, err := db.getRecordLocked(recType, keys)
	db.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return r.FieldBuffer(field)
}

// GetFieldBufferSize is GetFieldBuffer's size-only companion; it returns the
// field buffer's size in bytes.
func (db *DB) GetFieldBufferSize(recType, field string, keys ...any) (int, error) {
	buf, err := db.GetFieldBuffer(recType, field, keys...)
	if err != nil {
		return 0, err
	}
	return buf.Size(), nil
}

// CountRecords returns the number of committed records of a record type.
// Like the other queries it returns ErrClosed on a closed database and
// ErrUnknownRecordType for a type that was never defined (earlier versions
// silently returned 0 for both).
func (db *DB) CountRecords(recType string) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	if _, ok := db.recordTypes[recType]; !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownRecordType, recType)
	}
	idx, ok := db.indexes[recType]
	if !ok {
		return 0, nil
	}
	return idx.Len(), nil
}

// EachRecord calls fn for every committed record of a record type in
// ascending key order until fn returns false. Like the other queries it
// returns ErrClosed on a closed database and ErrUnknownRecordType for a
// type that was never defined (earlier versions silently did nothing for
// both). fn runs with the database lock held and must not call back into
// the database.
func (db *DB) EachRecord(recType string, fn func(r *Record) bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, ok := db.recordTypes[recType]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRecordType, recType)
	}
	idx, ok := db.indexes[recType]
	if !ok {
		return nil
	}
	idx.Ascend(func(_ []byte, r *Record) bool { return fn(r) })
	return nil
}
