package core

import (
	"fmt"
	"runtime/debug"
	"time"
)

// AddUnit appends a processing unit to the prefetching list (non-blocking).
// In background-I/O mode the I/O goroutine will read the unit's records into
// the database using the supplied read function, in AddUnit order. Adding a
// unit that is already queued or being read is a no-op; adding a previously
// failed unit re-queues it. Adding a unit whose data is still cached counts
// as a cache hit and performs no I/O, but the hint holds: should the unit be
// evicted before a consumer acquires it, it goes back to the tail of the
// prefetch queue with this read function instead of vanishing.
func (db *DB) AddUnit(name string, read ReadFunc) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if u, ok := db.units[name]; ok {
		switch u.state {
		case statePending, stateReading:
			return nil
		case stateReady:
			db.stats.CacheHits++
			return nil
		case stateFinished:
			// Still cached: refresh its recency so it survives until used,
			// and keep the read function for evictOneLocked's re-queue.
			db.lru.removeLocked(u)
			db.lru.pushMRULocked(u)
			u.read = read
			u.hinted = true
			db.stats.CacheHits++
			return nil
		case stateFailed:
			db.recordEventLocked(u, stateFailed, statePending)
			u.state = statePending
			u.err = nil
			u.allocFailed = nil
			u.read = read
			u.worker = -1
			db.enqueueLocked(u)
			return nil
		}
	}
	u := &unit{name: name, state: statePending, read: read, worker: -1}
	db.units[name] = u
	db.recordEventLocked(u, statePending, statePending)
	db.enqueueLocked(u)
	return nil
}

// enqueueLocked appends u, just made pending, to the prefetch queue, counts
// it as added and wakes the idle I/O workers to dispatch it. Busy workers
// re-check the queue after their current read completes; in single-thread
// mode no worker sleeps on queued and WaitUnit reads the unit inline.
// Caller holds db.mu.
func (db *DB) enqueueLocked(u *unit) {
	db.queue = append(db.queue, u)
	db.stats.UnitsAdded++
	broadcast(&db.queued)
}

// ReadUnit explicitly reads a unit into the database with a blocking call,
// the paper's foreground path for interactive tools that cannot predict
// future accesses. If the unit is already resident (prefetched earlier, or
// finished but not yet evicted) the call is a cache hit and returns without
// I/O; a finished unit is re-pinned. The caller becomes a consumer of the
// unit and should call FinishUnit or DeleteUnit when done with it.
func (db *DB) ReadUnit(name string, read ReadFunc) error {
	start := db.now()
	db.mu.Lock()
	defer db.endWaitLocked(start)
	if db.closed {
		return ErrClosed
	}
	u, ok := db.units[name]
	if !ok {
		u = &unit{name: name, state: statePending, read: read, worker: -1}
		db.units[name] = u
		db.recordEventLocked(u, statePending, statePending)
		db.stats.UnitsAdded++
	}
	return db.acquireUnitLocked(u, true)
}

// WaitUnit blocks until the named unit has been read into the database and
// pins it for processing. In single-thread mode a pending unit is read
// inline, making WaitUnit equivalent to an explicit blocking ReadUnit
// (paper §4.2's "G" library). The caller becomes a consumer of the unit.
func (db *DB) WaitUnit(name string) error {
	start := db.now()
	db.mu.Lock()
	defer db.endWaitLocked(start)
	if db.closed {
		return ErrClosed
	}
	u, ok := db.units[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUnit, name)
	}
	return db.acquireUnitLocked(u, false)
}

// endWaitLocked adds the time since start to VisibleWait and releases db.mu,
// ending a WaitUnit or ReadUnit. Caller holds db.mu.
func (db *DB) endWaitLocked(start time.Time) {
	db.stats.VisibleWait += db.since(start)
	db.mu.Unlock()
}

// acquireUnitLocked brings unit u to stateReady on behalf of one consumer:
// reading it inline when allowed (inline is true for ReadUnit, and pending
// units are always read inline when background I/O is off), waiting for the
// I/O goroutine otherwise, and re-pinning cached units. Caller holds db.mu;
// the lock is dropped during reads and waits.
func (db *DB) acquireUnitLocked(u *unit, inline bool) error {
	for {
		switch u.state {
		case statePending:
			if inline || db.ioWorkers == 0 {
				// This thread takes the read over from the pool: the unit
				// must leave the prefetch FIFO with it, or dead entries
				// would pin units forever in single-thread mode.
				db.unqueueLocked(u)
				u.worker = -1
				db.setStateLocked(u, stateReading)
				u.inline = true
				db.inlineReading++
				db.mu.Unlock()
				db.runRead(u) // ends the read: inlineReading--, inline = false
				db.mu.Lock()
				continue
			}
			db.waitStateLocked(u)
		case stateReading:
			db.waitStateLocked(u)
		case stateReady:
			u.refs++
			if u.everAcquired {
				db.stats.CacheHits++
			}
			u.everAcquired = true
			return nil
		case stateFinished:
			db.recordEventLocked(u, stateFinished, stateReady)
			db.lru.removeLocked(u)
			u.state = stateReady
			u.hinted = false
			u.refs++
			db.stats.CacheHits++
			return nil
		case stateFailed:
			return fmt.Errorf("%w: unit %q: %w", ErrUnitFailed, u.name, u.err)
		case stateDeleted:
			if db.closed {
				// Close swept the unit, possibly mid-read.
				return ErrClosed
			}
			return fmt.Errorf("%w: %q (deleted)", ErrUnknownUnit, u.name)
		}
		if db.closed {
			return ErrClosed
		}
	}
}

// waitStateLocked blocks until u leaves its current state or the database
// closes. It registers the caller as a waiter on u and wakes the blocked
// memory reservers once, so that a reader blocked on memory re-evaluates
// the §3.3 deadlock condition now that a consumer is provably stuck; the
// sleep itself is on the unit's stateCh. Caller holds db.mu; the lock is
// dropped while sleeping.
func (db *DB) waitStateLocked(u *unit) {
	if db.closed {
		return
	}
	state := u.state
	u.waiters++
	// One wake-up per registration, not per loop turn — and only of the
	// memory waiters, who are the ones whose deadlock verdict can change.
	broadcast(&db.memCh)
	for u.state == state && !db.closed {
		db.waitChLocked(&u.stateCh)
	}
	u.waiters--
}

// runRead executes a unit's read function outside the lock and finalizes the
// unit's state: ready, failed, or dropped when the unit was deleted
// mid-read. A read function that panics fails its unit like one that returns
// an error. The caller must have set u.state = stateReading under db.mu and
// released the lock.
func (db *DB) runRead(u *unit) {
	start := db.now()
	// u.read is read without db.mu: it is published under db.mu before the
	// unit enters stateReading, and this goroutine owns the unit until the
	// read completes, so the access cannot race (see the unit doc comment).
	err := callRead(u.read, &Unit{db: db, u: u})
	elapsed := db.since(start)
	db.mu.Lock()
	db.stats.ReadTime += elapsed
	defer db.mu.Unlock()
	if err == nil {
		err = u.allocFailed
	}
	if u.state == stateDeleted {
		// Deleted while being read: drop whatever the read created.
		db.dropRecordsLocked(u)
		broadcast(&u.stateCh)
	} else if err != nil {
		db.dropRecordsLocked(u)
		u.err = err
		db.setStateLocked(u, stateFailed)
		db.stats.UnitsFailed++
		if u.worker >= 0 {
			db.workers[u.worker].Failed++
		}
	} else {
		db.setStateLocked(u, stateReady)
		db.stats.UnitsRead++
		db.stats.BytesLoaded += u.memory
		// Only successful background reads count as prefetched, so
		// UnitsPrefetched stays a subset of UnitsRead.
		if u.worker >= 0 {
			db.stats.UnitsPrefetched++
			db.workers[u.worker].Prefetched++
		}
	}
	if u.state != stateReady {
		// Nothing borrows from the donors any more — neither a record nor,
		// now that it has returned, the read function — so they go too.
		db.runReleasersLocked(u)
	}
	// A read ending removes a progressing reader, which can flip the §3.3
	// verdict for allocations that chose to wait because this read was still
	// running (progressLocked): wake them to re-run the detector. A
	// successful read frees no memory, so releaseLocked cannot cover this.
	// The reader leaves the progress count in the same critical section as
	// the wake-up, or a waiter woken here could still count it and sleep
	// with nobody left to wake it.
	if u.inline {
		db.inlineReading--
		u.inline = false
	} else {
		db.ioReading--
		w := &db.workers[u.worker]
		w.Reading, w.Unit = false, ""
	}
	broadcast(&db.memCh)
}

// callRead runs read on u and returns its error or, when it panics, the
// panic value and stack as an error. Without the recover a panic would
// unwind into ReadUnit's deferred unlock of the db.mu runRead dropped — a
// fatal error, not a panic — or end a background worker and the process.
func callRead(read ReadFunc, u *Unit) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("read function panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return read(u)
}

// FinishUnit tells the database that one consumer has completed processing
// the named unit. When the last consumer finishes, the unit becomes
// evictable: its records stay cached and answer queries until memory
// pressure evicts them, LRU first (paper §3.2). The consumer must not keep
// reading buffers it obtained: once the unit is evicted, the memory of its
// allocated buffers may back a later unit's buffers, as the donors of its
// borrowed ones are released then.
func (db *DB) FinishUnit(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	u, ok := db.units[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUnit, name)
	}
	switch u.state {
	case stateReady:
		if u.refs > 0 {
			u.refs--
		}
		if u.refs == 0 {
			db.setStateLocked(u, stateFinished)
			db.lru.pushMRULocked(u)
			// The unit just became evictable: blocked memory reservers may
			// now succeed by evicting it, so they must re-check.
			broadcast(&db.memCh)
		}
		return nil
	case stateFinished:
		return nil
	default:
		return fmt.Errorf("%w: cannot finish unit %q in state %v", ErrUnitState, name, u.state)
	}
}

// DeleteUnit explicitly deletes the named unit and all of its records,
// releasing their memory immediately (paper §3.2: for data the program knows
// it will not need again). A unit currently being read is deleted as soon as
// its read function returns. The memory of the unit's allocated buffers may
// then back a later unit's buffers, and the donors of its borrowed ones are
// released, so no buffer of the unit may be read after DeleteUnit.
func (db *DB) DeleteUnit(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	u, ok := db.units[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUnit, name)
	}
	// Wait for an in-flight read to finish, registered as a waiter so a
	// reader blocked on memory sees us and the deadlock detector can fire
	// (the read then fails and the delete proceeds).
	for u.state == stateReading && !db.closed {
		db.waitStateLocked(u)
	}
	if db.units[name] != u {
		return nil // someone else deleted it while we waited
	}
	db.dropUnitLocked(u)
	db.stats.UnitsDeleted++
	return nil
}

// UnitState reports a unit's state name, for introspection and tests.
// ok is false if the unit is unknown (never added, or already deleted or
// evicted).
func (db *DB) UnitState(name string) (state string, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	u, found := db.units[name]
	if !found {
		return "", false
	}
	return u.state.String(), true
}

// ioLoop is one background I/O worker of the multi-thread library (with
// Options.IOWorkers == 1, the paper's single I/O thread): it pops units off
// the prefetch FIFO — dispatch is in AddUnit order because every pop takes
// the head under db.mu — and reads them through their read functions,
// blocking (inside reserveLocked) when the database is out of memory, until
// the database is closed. An idle worker sleeps on db.queued and is woken
// when a unit is enqueued or at Close; unit state changes and memory
// traffic never wake it.
func (db *DB) ioLoop(id int) {
	for {
		db.mu.Lock()
		for !db.closed && len(db.queue) == 0 {
			db.waitChLocked(&db.queued)
		}
		if db.closed {
			if db.ioLive--; db.ioLive == 0 {
				close(db.ioDone)
			}
			db.mu.Unlock()
			return
		}
		u := db.queue[0]
		db.queue[0] = nil // do not pin the unit through the backing array
		db.queue = db.queue[1:]
		if u.state != statePending {
			// Units leaving statePending are unqueued eagerly, so this is
			// only a defensive skip.
			db.mu.Unlock()
			continue
		}
		u.worker = id
		db.setStateLocked(u, stateReading)
		db.ioReading++
		w := &db.workers[id]
		w.Reading, w.Unit = true, u.name
		db.mu.Unlock()
		db.runRead(u) // ends the read: ioReading--, Reading = false
	}
}

// unqueueLocked removes u from the prefetch FIFO, if present: a unit that
// leaves statePending by any path other than worker dispatch (inline read,
// DeleteUnit, Close) must not linger there, or the queue would pin dead
// units and grow without bound across time steps. Caller holds db.mu.
func (db *DB) unqueueLocked(u *unit) {
	for i, q := range db.queue {
		if q == u {
			copy(db.queue[i:], db.queue[i+1:])
			db.queue[len(db.queue)-1] = nil
			db.queue = db.queue[:len(db.queue)-1]
			return
		}
	}
}
