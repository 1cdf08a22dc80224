//go:build godivainvariants

package core

import "fmt"

// Runtime invariant checking, compiled in only under the godivainvariants
// build tag (see DESIGN.md, "Static analysis & invariants"). Every check
// runs with db.mu held at a quiescent point — the end of a mutating
// operation, or a unit state transition — and panics with a
// diagnostic on the first violation. verify.sh runs the core test suite
// with this tag and -race; production builds compile the hooks to no-ops
// (invariants_off.go).

// invariantsEnabled reports whether this binary was built with the
// godivainvariants tag.
const invariantsEnabled = true

func invariantViolation(where, format string, args ...any) {
	panic(fmt.Sprintf("godiva: invariant violation [%s]: %s", where, fmt.Sprintf(format, args...)))
}

// checkMemLocked is the cheap accounting check run on every reserve and
// release: the byte charge can never go negative. Caller holds db.mu.
func (db *DB) checkMemLocked(where string) {
	if db.mem < 0 {
		invariantViolation(where, "memory charge is negative: %d bytes", db.mem)
	}
}

// checkInvariantsLocked runs the full structural audit: byte accounting
// (db.mem equals the sum of every live record's charge, with per-unit
// subtotals consistent), LRU list ↔ unit-state consistency, prefetch-queue
// hygiene, reader/blocked counter sanity, and the operation counters' subset
// chain. Caller holds db.mu at the end of a mutating operation.
func (db *DB) checkInvariantsLocked(where string) {
	db.checkMemLocked(where)

	// Byte accounting: every live record's charge sums to db.mem, and each
	// unit's subtotal matches its records.
	var total int64
	for name, u := range db.units {
		if u.name != name {
			invariantViolation(where, "unit map key %q holds unit named %q", name, u.name)
		}
		if u.memory < 0 {
			invariantViolation(where, "unit %q has negative memory %d", u.name, u.memory)
		}
		if u.refs < 0 {
			invariantViolation(where, "unit %q has negative refs %d", u.name, u.refs)
		}
		if u.waiters < 0 {
			invariantViolation(where, "unit %q has negative waiters %d", u.name, u.waiters)
		}
		var um int64
		for _, r := range u.records {
			um += r.memory
			for _, b := range r.buffers {
				if b != nil && b.borrowed && r.unit != u {
					invariantViolation(where, "unit %q holds a borrowed buffer on a record owned elsewhere", u.name)
				}
			}
		}
		if um != u.memory {
			invariantViolation(where, "unit %q charges %d bytes but its records sum to %d",
				u.name, u.memory, um)
		}
		total += u.memory

		// LRU membership is exactly "finished with no consumers".
		evictable := u.state == stateFinished && u.refs == 0
		if u.inLRU && !evictable {
			invariantViolation(where, "unit %q in LRU but state=%v refs=%d", u.name, u.state, u.refs)
		}
		if !u.inLRU && evictable {
			invariantViolation(where, "unit %q finished with refs=0 but not in LRU", u.name)
		}
	}
	for r := range db.resident {
		if r.memory < 0 {
			invariantViolation(where, "resident record of type %q has negative memory %d",
				r.rt.name, r.memory)
		}
		// Borrowed memory is unit-scoped: a resident record holding a
		// borrowed buffer would let the donation outlive every unit lifetime
		// bound (the FinishUnit/eviction contract in DESIGN.md).
		for _, b := range r.buffers {
			if b != nil && b.borrowed {
				invariantViolation(where, "resident record of type %q holds a borrowed buffer", r.rt.name)
			}
		}
		total += r.memory
	}
	if total != db.mem {
		invariantViolation(where, "db.mem = %d bytes but live records sum to %d", db.mem, total)
	}

	// LRU list structure: doubly linked, counted, all members marked.
	n := 0
	var prev *unit
	for u := db.lru.head; u != nil; u = u.lruNext {
		n++
		if n > db.lru.n {
			invariantViolation(where, "LRU list longer than its count %d (cycle?)", db.lru.n)
		}
		if !u.inLRU {
			invariantViolation(where, "unit %q linked in LRU without inLRU", u.name)
		}
		if u.lruPrev != prev {
			invariantViolation(where, "unit %q has broken LRU back-link", u.name)
		}
		if db.units[u.name] != u {
			invariantViolation(where, "LRU holds unit %q not in the unit map", u.name)
		}
		prev = u
	}
	if n != db.lru.n {
		invariantViolation(where, "LRU count %d but %d units linked", db.lru.n, n)
	}
	if db.lru.tail != prev {
		invariantViolation(where, "LRU tail does not terminate the list")
	}

	// Prefetch queue holds only live pending units.
	for i, q := range db.queue {
		if q == nil {
			invariantViolation(where, "prefetch queue slot %d is nil", i)
		}
		if q.state != statePending {
			invariantViolation(where, "queued unit %q is %v, want pending", q.name, q.state)
		}
		if db.units[q.name] != q {
			invariantViolation(where, "queued unit %q not in the unit map", q.name)
		}
	}

	// Reader accounting: blocked readers are a subset of active readers.
	if db.ioReading < 0 || db.ioBlocked < 0 || db.inlineReading < 0 || db.inlineBlocked < 0 {
		invariantViolation(where, "negative reader counters: ioReading=%d ioBlocked=%d inlineReading=%d inlineBlocked=%d",
			db.ioReading, db.ioBlocked, db.inlineReading, db.inlineBlocked)
	}
	if db.ioBlocked > db.ioReading {
		invariantViolation(where, "ioBlocked=%d exceeds ioReading=%d", db.ioBlocked, db.ioReading)
	}
	if db.inlineBlocked > db.inlineReading {
		invariantViolation(where, "inlineBlocked=%d exceeds inlineReading=%d",
			db.inlineBlocked, db.inlineReading)
	}
	if db.ioReading > db.ioWorkers {
		invariantViolation(where, "ioReading=%d exceeds pool size %d", db.ioReading, db.ioWorkers)
	}

	// Counters: every prefetch is a read of an added unit, and the workers'
	// shares of prefetching add up to the total.
	s := &db.stats
	if s.UnitsPrefetched < 0 || s.UnitsPrefetched > s.UnitsRead || s.UnitsRead > s.UnitsAdded {
		invariantViolation(where, "counters break UnitsPrefetched=%d <= UnitsRead=%d <= UnitsAdded=%d",
			s.UnitsPrefetched, s.UnitsRead, s.UnitsAdded)
	}
	var prefetched int64
	for _, w := range db.workers {
		prefetched += w.Prefetched
	}
	if prefetched != s.UnitsPrefetched {
		invariantViolation(where, "per-worker Prefetched sums to %d, UnitsPrefetched is %d",
			prefetched, s.UnitsPrefetched)
	}
}

// legalTransitions is the unit life-cycle table (paper §3.2 plus the
// re-queue and re-pin edges this implementation adds): every transition
// recorded through recordEventLocked must appear here.
var legalTransitions = map[unitState]map[unitState]bool{
	statePending:  {statePending: true, stateReading: true, stateDeleted: true},
	stateReading:  {stateReady: true, stateFailed: true, stateDeleted: true},
	stateReady:    {stateFinished: true, stateDeleted: true},
	stateFinished: {stateReady: true, stateEvicted: true, statePending: true, stateDeleted: true},
	stateFailed:   {statePending: true, stateDeleted: true},
}

// checkTransitionLocked validates one unit state transition against the
// legal life-cycle table. Caller holds db.mu.
func (db *DB) checkTransitionLocked(u *unit, from, to unitState) {
	if !legalTransitions[from][to] {
		invariantViolation("transition", "unit %q: illegal transition %v -> %v", u.name, from, to)
	}
}

// corruptMemForTest deliberately skews the byte accounting. It exists only
// under the godivainvariants tag, as the hook invariants_test.go uses to
// prove the checker is alive (a healthy run never trips it).
func (db *DB) corruptMemForTest(delta int64) {
	db.mu.Lock()
	db.mem += delta
	db.mu.Unlock()
}
