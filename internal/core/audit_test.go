package core

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// The invariant audit: the structural checks a database must pass at every
// point where db.mu is free. Tests run it after every step of the schedule
// explorer and the machine-driven stress tests, at every park on their
// Clock (seedClock.Wait), and on every newTestDB before it is closed; the
// traced event log of every database opened on a seedClock is checked
// against legalTransitions. Production code carries no hook: the checks
// live here, in one build.

func invariantViolation(where, format string, args ...any) {
	panic(fmt.Sprintf("godiva: invariant violation [%s]: %s", where, fmt.Sprintf(format, args...)))
}

// audit runs the full invariant check under db.mu.
func audit(db *DB, where string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.auditLocked(where)
}

// auditLocked panics on the first broken invariant: byte accounting
// (db.mem equals the sum of every live record's charge, with per-unit
// subtotals consistent), borrowed buffers only on records of the unit that
// holds them, the free list (within the limit beside the charge, holding
// neither borrowed memory nor memory a live record's buffer holds), LRU
// list ↔ unit-state consistency, prefetch-queue hygiene, reader/blocked
// counter sanity, and the operation counters' subset chain. Caller holds
// db.mu.
func (db *DB) auditLocked(where string) {
	if db.mem < 0 {
		invariantViolation(where, "memory charge is negative: %d bytes", db.mem)
	}
	freed := db.auditFreeLocked(where)

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
				if freed[bufferBase(b)] {
					invariantViolation(where, "unit %q holds a buffer whose memory is on the free list", u.name)
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
			if freed[bufferBase(b)] {
				invariantViolation(where, "resident record of type %q holds a buffer whose memory is on the free list", r.rt.name)
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

// auditFreeLocked checks the free list on its own — its total, each
// entry's key, no borrowed memory, no array twice, nothing kept by a closed
// database, and the charge plus the list within the limit — and returns the
// set of its arrays for auditLocked to check live records against. Caller
// holds db.mu.
func (db *DB) auditFreeLocked(where string) map[unsafe.Pointer]bool {
	freed := map[unsafe.Pointer]bool{}
	var total int64
	for k, list := range db.free {
		for _, b := range list {
			if b == nil {
				invariantViolation(where, "free list of %v/%d bytes holds nil", k.dtype, k.size)
			}
			if b.borrowed {
				invariantViolation(where, "free list of %v/%d bytes holds borrowed memory", k.dtype, k.size)
			}
			if b.dtype != k.dtype || b.size != k.size || b.data == nil {
				invariantViolation(where, "free list of %v/%d bytes holds a %v buffer of %d bytes at %p",
					k.dtype, k.size, b.dtype, b.size, b.data)
			}
			p := bufferBase(b)
			if freed[p] {
				invariantViolation(where, "free list holds one %v array of %d bytes twice", k.dtype, k.size)
			}
			freed[p] = true
			total += int64(k.size)
		}
	}
	if total != db.freeBytes {
		invariantViolation(where, "freeBytes = %d but the free list holds %d", db.freeBytes, total)
	}
	if db.closed && total != 0 {
		invariantViolation(where, "closed database keeps %d bytes on its free list", total)
	}
	if total > 0 && db.mem+total > db.limit {
		invariantViolation(where, "charge %d + free list %d exceeds the limit %d", db.mem, total, db.limit)
	}
	return freed
}

// bufferBase is the address of the array behind b, nil for a nil or empty
// buffer.
func bufferBase(b *Buffer) unsafe.Pointer {
	if b == nil || b.size == 0 {
		return nil
	}
	return b.data
}

// legalTransitions is the unit life-cycle table (paper §3.2 plus the
// re-queue and re-pin edges this implementation adds): every transition
// recordEventLocked logs must appear here.
var legalTransitions = map[unitState]map[unitState]bool{
	statePending:  {statePending: true, stateReading: true, stateDeleted: true},
	stateReading:  {stateReady: true, stateFailed: true, stateDeleted: true},
	stateReady:    {stateFinished: true, stateDeleted: true},
	stateFinished: {stateReady: true, stateEvicted: true, statePending: true, stateDeleted: true},
	stateFailed:   {statePending: true, stateDeleted: true},
}

// checkTransitions panics on the first event in db's log, which the
// database must have been opened with TraceUnits to keep, that
// legalTransitions does not allow. recordEventLocked logs each edge from
// the unit's state at the time, so an eviction shows as finished → evicted
// and, for a re-added unit, finished → pending.
func checkTransitions(db *DB) {
	legal := map[[2]string]bool{}
	for from, tos := range legalTransitions {
		for to := range tos {
			legal[[2]string{from.String(), to.String()}] = true
		}
	}
	for _, e := range db.UnitEvents() {
		if !legal[[2]string{e.From, e.To}] {
			invariantViolation("transition", "unit %q: illegal transition %s -> %s", e.Unit, e.From, e.To)
		}
	}
}

// mustPanicInvariant runs fn and asserts it panics with an invariant
// violation, returning the panic message. Any other panic is re-raised.
func mustPanicInvariant(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("invariant checker did not fire")
		}
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "invariant violation") {
			panic(r) // not ours: propagate
		}
		msg = s
	}()
	fn()
	return
}

// The tests below corrupt database state on purpose and assert the audit
// panics rather than letting the corruption pass; each restores the state
// before newTestDB's cleanup audits and closes the database.

// TestCorruptedAccountingPanics drives the §3.3 memory accounting off its
// books and asserts the audit panics.
func TestCorruptedAccountingPanics(t *testing.T) {
	db := newTestDB(t, Options{MemoryLimit: 1 << 20})
	defineBlobSchema(t, db)
	if err := db.ReadUnit("u", blobReader(256, nil)); err != nil {
		t.Fatal(err)
	}
	db.mem += 4096 // mem no longer equals the sum of record memory
	msg := mustPanicInvariant(t, func() { audit(db, "test") })
	if !strings.Contains(msg, "db.mem") {
		t.Errorf("panic message does not mention memory accounting: %q", msg)
	}
	db.mem -= 4096
	if err := db.FinishUnit("u"); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeMemPanics drives the charge below zero, the other direction
// the books can be wrong in.
func TestNegativeMemPanics(t *testing.T) {
	db := newTestDB(t, Options{MemoryLimit: 1 << 20})
	defineBlobSchema(t, db)
	db.mem--
	msg := mustPanicInvariant(t, func() { audit(db, "test") })
	if !strings.Contains(msg, "negative") {
		t.Errorf("panic message does not say the charge is negative: %q", msg)
	}
	db.mem++
}

// TestIllegalTransitionPanics asserts the legal-transition table rejects a
// pending unit jumping straight to finished.
func TestIllegalTransitionPanics(t *testing.T) {
	db := newTestDB(t, Options{MemoryLimit: 1 << 20, TraceUnits: true})
	defineBlobSchema(t, db)
	if err := db.AddUnit("u", blobReader(64, nil)); err != nil {
		t.Fatal(err)
	}
	checkTransitions(db)
	db.mu.Lock()
	u := db.units["u"]
	db.setStateLocked(u, stateFinished)
	u.state = statePending // the log keeps the illegal edge; the unit is whole again
	db.mu.Unlock()
	msg := mustPanicInvariant(t, func() { checkTransitions(db) })
	if !strings.Contains(msg, "pending") || !strings.Contains(msg, "finished") {
		t.Errorf("panic message does not name the transition: %q", msg)
	}
	if err := db.DeleteUnit("u"); err != nil {
		t.Fatal(err)
	}
}

// TestLRUConsistencyPanics asserts the LRU <-> unit-state cross-check: a
// unit marked as an LRU member without being linked into the list (or
// without being evictable) fails the audit.
func TestLRUConsistencyPanics(t *testing.T) {
	db := newTestDB(t, Options{MemoryLimit: 1 << 20})
	defineBlobSchema(t, db)
	if err := db.ReadUnit("u", blobReader(64, nil)); err != nil {
		t.Fatal(err)
	}
	db.units["u"].inLRU = true // ready unit cannot be in the LRU
	mustPanicInvariant(t, func() { audit(db, "test") })
	db.units["u"].inLRU = false
	if err := db.FinishUnit("u"); err != nil {
		t.Fatal(err)
	}
}

// TestHealthyLifecyclePassesChecks runs a full healthy unit lifecycle —
// add, wait, finish, evict under pressure, delete — auditing after every
// step, and checks its traced transitions.
func TestHealthyLifecyclePassesChecks(t *testing.T) {
	db := newTestDB(t, Options{MemoryLimit: 8 << 10, TraceUnits: true})
	defineBlobSchema(t, db)
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		audit(db, "test")
	}
	for i, name := range []string{"a", "b", "c"} {
		step(db.AddUnit(name, blobReader(512+i*128, nil)))
		step(db.WaitUnit(name))
		step(db.FinishUnit(name))
	}
	db.SetMemSpace(1) // evicts every finished unit
	step(nil)
	if n := len(db.Units()); n != 0 {
		t.Fatalf("%d units left after shrinking the limit below one unit", n)
	}
	step(db.AddUnit("a", blobReader(512, nil)))
	step(db.DeleteUnit("a"))
	checkTransitions(db)
	if s := db.Stats(); s.UnitsRead != 3 || s.UnitsEvicted != 3 {
		t.Fatalf("UnitsRead = %d, UnitsEvicted = %d, want 3 and 3", s.UnitsRead, s.UnitsEvicted)
	}
}
