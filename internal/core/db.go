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
// Locking architecture (see DESIGN.md, "Locking architecture"): db.mu is a
// readers-writer lock. The renderer-facing query path — GetRecord,
// GetFieldBuffer, GetFieldBufferSize, CountRecords, EachRecord, ScanPrefix —
// and all introspection take the read side, so concurrent readers never
// contend with each other; unit lifecycle, memory accounting, schema
// definition, commits and deletes take the write side. Blocking is built
// from targeted wakeups instead of a global condition variable: each unit
// carries its own wait channel (closed on every state transition), blocked
// memory reservers queue on a dedicated FIFO woken only by events that can
// change a reservation's outcome, and idle I/O workers queue on their own
// FIFO from which AddUnit wakes exactly one. Operation counters are atomic
// (stats.go) and never take the lock.
type DB struct {
	mu sync.RWMutex

	fieldTypes  map[string]*fieldType            // guarded by mu
	recordTypes map[string]*recordType           // guarded by mu
	indexes     map[string]*rbtree.Tree[*Record] // record type name -> key index; guarded by mu
	resident    map[*Record]struct{}             // records owned by no unit; guarded by mu

	units map[string]*unit // guarded by mu
	queue []*unit          // prefetch FIFO (statePending units, in AddUnit order); guarded by mu
	lru   lruList          // finished, unreferenced units, evictable; guarded by mu

	// memWaiters is the FIFO of goroutines blocked in reserveLocked waiting
	// for memory. They are woken, in FIFO order, only by events that can
	// change a reservation's outcome — either freeing memory or flipping the
	// §3.3 deadlock verdict: bytes released (releaseLocked), a unit becoming
	// evictable (FinishUnit), the limit changing (SetMemSpace), a new
	// unit-state waiter registering, a read ending (runRead — a progressing
	// reader disappears), a unit dropped (dropUnitLocked — queued work
	// disappears), and Close. Unit-state waiters are never woken by memory
	// traffic; ordinary queries wake nobody. Guarded by mu.
	memWaiters []chan struct{}

	// idleWorkers is the FIFO of background I/O workers sleeping for the
	// prefetch queue to become non-empty. AddUnit wakes exactly one idle
	// worker per enqueued unit; busy workers re-check the queue when their
	// current read completes and need no signal. Guarded by mu.
	idleWorkers []chan struct{}

	mem    int64 // bytes charged; guarded by mu
	limit  int64 // guarded by mu
	closed bool  // guarded by mu

	ioWorkers     int           // background I/O pool size; 0 in single-thread mode; immutable after Open
	ioReading     int           // workers currently executing a read; guarded by mu
	ioBlocked     int           // workers currently blocked on memory in reserveLocked; guarded by mu
	inlineReading int           // application threads currently executing an inline read; guarded by mu
	inlineBlocked int           // inline readers currently blocked on memory; guarded by mu
	ioLive        int           // workers not yet exited; guarded by mu
	ioDone        chan struct{} // closed by the last worker to exit; immutable after Open
	workers       []workerState // per-worker state, indexed by worker id; slice header immutable after Open

	stats        statsCounters         // atomic counters, never accessed under mu (see stats.go)
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
		workers:     make([]workerState, workers),
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
	db.wakeMemWaitersLocked()
	for _, ch := range db.idleWorkers {
		close(ch)
	}
	db.idleWorkers = nil
	for _, u := range db.units {
		db.notifyUnitLocked(u)
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
	db.wakeMemWaitersLocked()
}

// MemUsed returns the bytes currently charged against the memory limit.
func (db *DB) MemUsed() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.mem
}

// MemLimit returns the current memory limit in bytes.
func (db *DB) MemLimit() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.limit
}

// indexForLocked returns (creating on demand) the key index of a record
// type. Caller holds db.mu (write).
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

// --- targeted wakeups ---

// memWaitChLocked registers the caller at the tail of the memory-waiter
// FIFO and returns its wait channel. The caller must release db.mu before
// receiving and re-acquire it afterwards. Caller holds db.mu (write).
func (db *DB) memWaitChLocked() chan struct{} {
	ch := make(chan struct{})
	db.memWaiters = append(db.memWaiters, ch)
	return ch
}

// wakeMemWaitersLocked wakes every goroutine blocked on memory, in FIFO
// order, and empties the FIFO; woken reservers re-check their condition
// and re-register if they still do not fit. Unit-state waiters are not
// woken — they cannot use memory. Caller holds db.mu (write).
func (db *DB) wakeMemWaitersLocked() {
	for i, ch := range db.memWaiters {
		close(ch)
		db.memWaiters[i] = nil
	}
	db.memWaiters = db.memWaiters[:0]
}

// notifyUnitLocked wakes every goroutine waiting for u to change state by
// closing the unit's wait channel. Waiters re-check u.state and lazily
// create a fresh channel if they need to wait again. Caller holds db.mu
// (write).
func (db *DB) notifyUnitLocked(u *unit) {
	if u.stateCh != nil {
		close(u.stateCh)
		u.stateCh = nil
	}
}

// setStateLocked moves u to state to, records the transition in the event
// log and wakes the unit's waiters. Caller holds db.mu (write).
func (db *DB) setStateLocked(u *unit, to unitState) {
	db.recordEventLocked(u, u.state, to)
	u.state = to
	db.notifyUnitLocked(u)
}

// reserveLocked charges need bytes against the memory limit, evicting
// finished units (LRU first) and blocking until space is available. owner is
// the unit whose read function is allocating, or nil for allocations made
// outside any read function. It returns ErrDeadlock when waiting can never
// succeed per the paper's §3.3 detection rule. Caller holds db.mu (write);
// the lock is dropped while waiting in the memory-waiter FIFO.
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
			db.stats.deadlocks.Add(1)
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
		ch := db.memWaitChLocked()
		start := db.now()
		db.mu.Unlock()
		db.wait(ch)
		db.mu.Lock()
		if owner != nil {
			owner.memBlocked = false
		}
		if bgWorker {
			db.ioBlocked--
			db.workers[owner.worker].blockedNanos.Add(int64(db.since(start)))
		} else if owner != nil {
			db.inlineBlocked--
		}
	}
	db.mem += need
	db.stats.observePeak(db.mem)
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
// memory-waiter FIFO — and only it: unit-state waiters cannot use memory
// and are not woken by memory traffic. Caller holds db.mu (write).
func (db *DB) releaseLocked(n int64) {
	db.mem -= n
	db.checkMemLocked("releaseLocked")
	if n > 0 {
		db.wakeMemWaitersLocked()
	}
}

// evictOneLocked evicts the least-recently-used finished unit, dropping all
// of its records. It reports whether a unit was evicted. A unit AddUnit
// re-added while cached is still owed to a consumer, so it goes back to the
// tail of the prefetch queue instead of out of the database. Blocked
// reservers are woken by the memory release itself (releaseLocked, via
// dropRecordLocked). Caller holds db.mu (write).
func (db *DB) evictOneLocked() bool {
	u := db.lru.popLRULocked()
	if u == nil {
		return false
	}
	db.recordEventLocked(u, u.state, stateEvicted)
	db.stats.unitsEvicted.Add(1)
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
	db.queue = append(db.queue, u)
	db.stats.unitsAdded.Add(1)
	db.signalWorkerLocked()
	return true
}

// dropUnitLocked removes a unit and all of its records from the database.
// Caller holds db.mu (write).
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
	db.notifyUnitLocked(u)
	delete(db.units, u.name)
	// Dropping a unit can change the §3.3 verdict without releasing a byte —
	// deleting a pending unit shrinks the queue behind progressLocked's
	// idle-workers-with-queued-units clause — so blocked reservers must
	// re-run the detector even when releaseLocked had nothing to wake.
	db.wakeMemWaitersLocked()
}

// dropRecordsLocked drops every record u owns and clears its charge. Caller
// holds db.mu (write).
func (db *DB) dropRecordsLocked(u *unit) {
	for _, r := range u.records {
		db.dropRecordLocked(r)
	}
	u.records = nil
	u.memory = 0
}

// runReleasersLocked runs u's release hooks, in registration order, and
// forgets them, so each runs exactly once. They run under db.mu by contract
// (Unit.OnRelease): prompt, non-reentrant cleanup only. Caller holds db.mu
// (write).
func (db *DB) runReleasersLocked(u *unit) {
	for _, fn := range u.releasers {
		fn()
	}
	u.releasers = nil
}

// getRecordRLocked answers a key-lookup query. Caller holds db.mu (read or
// write side).
//
//godiva:noalloc
func (db *DB) getRecordRLocked(recType string, keys []any) (*Record, error) {
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
	kp := keyScratch.Get().(*[]byte)
	key, err := rt.appendKeyForValues((*kp)[:0], keys)
	if err != nil {
		keyScratch.Put(kp)
		return nil, err
	}
	idx, found := db.indexes[recType]
	var r *Record
	if found {
		r, ok = idx.Get(key)
	} else {
		r, ok = nil, false
	}
	*kp = key
	keyScratch.Put(kp)
	if !ok {
		return nil, fmt.Errorf("%w: record type %q", ErrNotFound, recType)
	}
	return r, nil
}

// keyScratch pools composite-key scratch buffers for the query path, so a
// fixed-size key lookup performs no allocation (see BenchmarkKeyLookup).
// Keys built here are only compared against the index, never retained.
var keyScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 64)
	return &b
}}

// GetRecord returns the committed record of the given type identified by the
// key values, in key-field insertion order.
func (db *DB) GetRecord(recType string, keys ...any) (*Record, error) {
	db.mu.RLock()
	r, err := db.getRecordRLocked(recType, keys)
	db.mu.RUnlock()
	return r, err
}

// GetFieldBuffer answers the paper's key-lookup query: it returns the data
// buffer of the named field in the record of the given type identified by
// the key values. The visualization code then accesses the buffer directly,
// as if it were a user-allocated array.
func (db *DB) GetFieldBuffer(recType, field string, keys ...any) (*Buffer, error) {
	db.mu.RLock()
	r, err := db.getRecordRLocked(recType, keys)
	db.mu.RUnlock()
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
	db.mu.RLock()
	defer db.mu.RUnlock()
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
// both). fn runs with the database read lock held and must not call back
// into the database.
func (db *DB) EachRecord(recType string, fn func(r *Record) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
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
