package core

import "fmt"

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
	defer db.checkInvariantsLocked("AddUnit")
	if db.closed {
		return ErrClosed
	}
	if u, ok := db.units[name]; ok {
		switch u.state {
		case statePending, stateReading:
			return nil
		case stateReady:
			db.stats.cacheHits.Add(1)
			return nil
		case stateFinished:
			// Still cached: refresh its recency so it survives until used,
			// and keep the read function for evictOneLocked's re-queue.
			db.lru.removeLocked(u)
			db.lru.pushMRULocked(u)
			u.read = read
			u.hinted = true
			db.stats.cacheHits.Add(1)
			return nil
		case stateFailed:
			db.recordEventLocked(u, stateFailed, statePending)
			u.state = statePending
			u.err = nil
			u.allocFailed = nil
			u.read = read
			u.worker = -1
			db.queue = append(db.queue, u)
			db.stats.unitsAdded.Add(1)
			db.signalWorkerLocked()
			return nil
		}
	}
	u := &unit{name: name, state: statePending, read: read, worker: -1}
	db.units[name] = u
	db.recordEventLocked(u, statePending, statePending)
	db.queue = append(db.queue, u)
	db.stats.unitsAdded.Add(1)
	db.signalWorkerLocked()
	return nil
}

// signalWorkerLocked wakes exactly one idle background I/O worker to
// dispatch a just-enqueued unit. When no worker is idle the signal is
// unnecessary: every busy worker re-checks the queue after its current read
// completes. In single-thread mode (ioWorkers == 0) there is no worker to
// wake and the enqueue alone is correct — WaitUnit will read the unit
// inline — so this is an explicit no-op. Caller holds db.mu (write).
func (db *DB) signalWorkerLocked() {
	if db.ioWorkers == 0 || len(db.idleWorkers) == 0 {
		return
	}
	ch := db.idleWorkers[0]
	db.idleWorkers[0] = nil
	db.idleWorkers = db.idleWorkers[1:]
	close(ch)
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
	defer func() {
		db.mu.Unlock()
		db.stats.visibleWaitNanos.Add(int64(db.since(start)))
	}()
	defer db.checkInvariantsLocked("ReadUnit")
	if db.closed {
		return ErrClosed
	}
	u, ok := db.units[name]
	if !ok {
		u = &unit{name: name, state: statePending, read: read, worker: -1}
		db.units[name] = u
		db.recordEventLocked(u, statePending, statePending)
		db.stats.unitsAdded.Add(1)
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
	defer func() {
		db.mu.Unlock()
		db.stats.visibleWaitNanos.Add(int64(db.since(start)))
	}()
	defer db.checkInvariantsLocked("WaitUnit")
	if db.closed {
		return ErrClosed
	}
	u, ok := db.units[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUnit, name)
	}
	return db.acquireUnitLocked(u, false)
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
				db.stats.cacheHits.Add(1)
			}
			u.everAcquired = true
			return nil
		case stateFinished:
			db.recordEventLocked(u, stateFinished, stateReady)
			db.lru.removeLocked(u)
			u.state = stateReady
			u.hinted = false
			u.refs++
			db.stats.cacheHits.Add(1)
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
// the §3.3 deadlock condition now that a consumer is provably stuck (this
// replaces the registration broadcast of the old condition-variable
// scheme; the sleep itself uses the unit's targeted wait channel). Caller
// holds db.mu; the lock is dropped while sleeping.
func (db *DB) waitStateLocked(u *unit) {
	state := u.state
	if u.state != state || db.closed {
		return
	}
	u.waiters++
	// One wake-up per registration, not per loop turn — and only of the
	// memory waiters, who are the ones whose deadlock verdict can change.
	db.wakeMemWaitersLocked()
	for u.state == state && !db.closed {
		if u.stateCh == nil {
			u.stateCh = make(chan struct{})
		}
		ch := u.stateCh
		db.mu.Unlock()
		db.wait(ch)
		db.mu.Lock()
	}
	u.waiters--
}

// runRead executes a unit's read function outside the lock and finalizes the
// unit's state: ready, failed, or dropped when the unit was deleted
// mid-read. The caller must have set u.state = stateReading under db.mu and
// released the lock.
func (db *DB) runRead(u *unit) {
	start := db.now()
	//lint:ignore lockcheck u.read is published under db.mu before the unit
	// enters stateReading, and this goroutine owns the unit until the read
	// completes — the unlocked access cannot race (see the unit doc comment).
	err := u.read(&Unit{db: db, u: u})
	db.stats.readTimeNanos.Add(int64(db.since(start)))
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("runRead")
	if err == nil {
		err = u.allocFailed
	}
	if u.state == stateDeleted {
		// Deleted while being read: drop whatever the read created.
		db.dropRecordsLocked(u)
		db.notifyUnitLocked(u)
	} else if err != nil {
		db.dropRecordsLocked(u)
		u.err = err
		db.setStateLocked(u, stateFailed)
		db.stats.unitsFailed.Add(1)
		if u.worker >= 0 {
			db.workers[u.worker].failed.Add(1)
		}
	} else {
		db.setStateLocked(u, stateReady)
		db.stats.unitsRead.Add(1)
		db.stats.bytesLoaded.Add(u.memory)
		// Only successful background reads count as prefetched, so
		// UnitsPrefetched stays a subset of UnitsRead; bumping both under
		// db.mu keeps Stats and IOWorkerStats from tearing against each
		// other once the unit's state is visible.
		if u.worker >= 0 {
			db.stats.unitsPrefetched.Add(1)
			db.workers[u.worker].prefetched.Add(1)
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
	}
	db.wakeMemWaitersLocked()
}

// FinishUnit tells the database that one consumer has completed processing
// the named unit. When the last consumer finishes, the unit becomes
// evictable: its records stay cached and answer queries until memory
// pressure evicts them, LRU first (paper §3.2).
func (db *DB) FinishUnit(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("FinishUnit")
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
			db.wakeMemWaitersLocked()
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
// its read function returns.
func (db *DB) DeleteUnit(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("DeleteUnit")
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
	db.stats.unitsDeleted.Add(1)
	return nil
}

// UnitState reports a unit's state name, for introspection and tests.
// ok is false if the unit is unknown (never added, or already deleted or
// evicted).
func (db *DB) UnitState(name string) (state string, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
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
// the database is closed. An idle worker sleeps on its own entry in the
// idle-worker FIFO and is woken by AddUnit (one worker per enqueued unit)
// or Close; unit state changes and memory traffic never wake it.
func (db *DB) ioLoop(id int) {
	for {
		db.mu.Lock()
		for !db.closed && len(db.queue) == 0 {
			ch := make(chan struct{})
			db.idleWorkers = append(db.idleWorkers, ch)
			db.mu.Unlock()
			db.wait(ch)
			db.mu.Lock()
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
		ws := &db.workers[id]
		ws.reading.Store(true)
		ws.unit = u.name
		db.mu.Unlock()
		db.runRead(u) // ends the read: ioReading--
		db.mu.Lock()
		ws.reading.Store(false)
		ws.unit = ""
		db.mu.Unlock()
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
