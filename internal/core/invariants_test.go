//go:build godivainvariants

package core

import (
	"strings"
	"testing"
)

// These tests only exist under the godivainvariants build tag: they corrupt
// database state on purpose (through test-only hooks) and assert that the
// runtime invariant checker panics rather than letting the corruption
// propagate. The databases are deliberately NOT closed — a corrupted
// database cannot pass the checks Close runs.

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

func TestInvariantsTagEnabled(t *testing.T) {
	if !invariantsEnabled {
		t.Fatal("invariants_test.go built without invariantsEnabled")
	}
}

// TestCorruptedAccountingPanics drives the §3.3 memory accounting off its
// books via the test hook and asserts the next checked operation panics.
func TestCorruptedAccountingPanics(t *testing.T) {
	db := Open(Options{MemoryLimit: 1 << 20})
	defineBlobSchema(t, db)
	if err := db.ReadUnit("u", blobReader(256, nil)); err != nil {
		t.Fatal(err)
	}
	db.corruptMemForTest(4096) // mem no longer equals the sum of record memory
	msg := mustPanicInvariant(t, func() { db.SetMemSpace(2 << 20) })
	if !strings.Contains(msg, "db.mem") {
		t.Errorf("panic message does not mention memory accounting: %q", msg)
	}
	// Restore the books so the database can shut down cleanly.
	db.corruptMemForTest(-4096)
	if err := db.FinishUnit("u"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeMemPanics drives the charge below zero, the other direction
// the books can be wrong in.
func TestNegativeMemPanics(t *testing.T) {
	db := Open(Options{MemoryLimit: 1 << 20})
	defineBlobSchema(t, db)
	db.corruptMemForTest(-1)
	mustPanicInvariant(t, func() {
		// The next reservation observes mem < 0 on its release/check path.
		db.SetMemSpace(2 << 20)
	})
	db.corruptMemForTest(1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIllegalTransitionPanics asserts the legal-transition table rejects a
// pending unit jumping straight to finished.
func TestIllegalTransitionPanics(t *testing.T) {
	db := Open(Options{MemoryLimit: 1 << 20})
	defineBlobSchema(t, db)
	if err := db.AddUnit("u", blobReader(64, nil)); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	u := db.units["u"]
	if u == nil || u.state != statePending {
		db.mu.Unlock()
		t.Fatalf("unit not pending before transition test")
	}
	msg := mustPanicInvariant(t, func() { db.setStateLocked(u, stateFinished) })
	db.mu.Unlock()
	if !strings.Contains(msg, "pending") || !strings.Contains(msg, "finished") {
		t.Errorf("panic message does not name the transition: %q", msg)
	}
	if err := db.DeleteUnit("u"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLRUConsistencyPanics asserts the LRU <-> unit-state cross-check: a
// unit marked as an LRU member without being linked into the list (or
// without being evictable) is caught by the next checked operation.
func TestLRUConsistencyPanics(t *testing.T) {
	db := Open(Options{MemoryLimit: 1 << 20})
	defineBlobSchema(t, db)
	if err := db.ReadUnit("u", blobReader(64, nil)); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	db.units["u"].inLRU = true // ready unit cannot be in the LRU
	db.mu.Unlock()
	mustPanicInvariant(t, func() { db.SetMemSpace(2 << 20) })
	db.mu.Lock()
	db.units["u"].inLRU = false
	db.mu.Unlock()
	if err := db.FinishUnit("u"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthyLifecyclePassesChecks runs a full healthy unit lifecycle with
// the checker armed — add, wait, finish, evict under pressure, delete —
// and expects no panic.
func TestHealthyLifecyclePassesChecks(t *testing.T) {
	db := newTestDB(t, Options{MemoryLimit: 8 << 10})
	defineBlobSchema(t, db)
	for i, name := range []string{"a", "b", "c"} {
		if err := db.AddUnit(name, blobReader(512+i*128, nil)); err != nil {
			t.Fatal(err)
		}
		if err := db.WaitUnit(name); err != nil {
			t.Fatal(err)
		}
		if err := db.FinishUnit(name); err != nil {
			t.Fatal(err)
		}
	}
	db.SetMemSpace(1 << 10) // force evictions through the checked path
	if err := db.DeleteUnit("c"); err != nil && !strings.Contains(err.Error(), "unknown") {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.UnitsRead < 3 {
		t.Fatalf("UnitsRead = %d, want >= 3", s.UnitsRead)
	}
}
