// Package pairbad seeds pairing violations for releasecheck and borrowcheck:
// unit pins never released, payload pins dropped by whoever was handed them,
// a field buffer used past its unit's release. lint_test.go reads the wants.
package pairbad

import (
	"errors"

	"godiva/internal/core"
)

func sink(any) {}

func leakUnit(db *core.DB) error {
	if err := db.WaitUnit("step-1"); err != nil { // want releasecheck `unit "step-1" acquired with WaitUnit leaks on the return at line 18`
		return err
	}
	return nil
}

func mismatchedName(db *core.DB) error {
	if err := db.ReadUnit("a", nil); err != nil { // want releasecheck `unit "a" acquired with ReadUnit leaks on the return at line 25`
		return err
	}
	return db.FinishUnit("b")
}

func retainBuffer(db *core.DB) error {
	if err := db.WaitUnit("u"); err != nil {
		return err
	}
	buf, err := db.GetFieldBuffer("particles", "position")
	if err != nil {
		return errors.Join(err, db.FinishUnit("u"))
	}
	if err := db.FinishUnit("u"); err != nil {
		return err
	}
	sink(buf) // want borrowcheck `use of unit field buffer after FinishUnit/DeleteUnit released it`
	return nil
}

type payloadEntry struct{}

type payloadCache struct{}

func (c *payloadCache) acquire(key string) *payloadEntry { return nil }
func (c *payloadCache) insert(key string, size int64) *payloadEntry {
	return nil
}
func (c *payloadCache) release(e *payloadEntry) {}
func (c *payloadCache) closeAll()               {}

// leakPayloadPin hands its pin to the caller, so the leak is wherever a
// caller drops it: dropHandedOffPin.
func leakPayloadPin(c *payloadCache) *payloadEntry {
	return c.acquire("snap.shdf")
}

func dropHandedOffPin(c *payloadCache) {
	leakPayloadPin(c) // want releasecheck `pinned payload acquired with leakPayloadPin leaks on the end of the function`
}

// peek only looks at the entry it is handed: the pin stays with the caller.
func peek(e *payloadEntry) bool { return e != nil }

func leakInsertPin(c *payloadCache) {
	peek(c.insert("snap.shdf", 64)) // want releasecheck `pinned payload acquired with insert leaks on the end of the function`
}

// lendAndDrop lends a bound pin the same way and then forgets it.
func lendAndDrop(c *payloadCache) {
	e := c.acquire("snap.shdf") // want releasecheck `pinned payload acquired with acquire leaks on the end of the function`
	if e == nil {
		return
	}
	peek(e)
}

// handOffInsertPin is clean: sink may keep what it is given, so the pin is
// sink's to release.
func handOffInsertPin(c *payloadCache) {
	sink(c.insert("snap.shdf", 64))
}

// balancedHandedOffPin is clean: it releases the pin it was handed, and
// lending it to peek in between changes nothing.
func balancedHandedOffPin(c *payloadCache) {
	if e := leakPayloadPin(c); e != nil {
		peek(e)
		c.release(e)
	}
}

func balancedPayloadPin(c *payloadCache) {
	if e := c.acquire("snap.shdf"); e != nil {
		c.release(e)
		return
	}
	if e := c.insert("snap.shdf", 64); e != nil {
		c.release(e)
	}
}

func balancedUnit(db *core.DB, unit string) error {
	if err := db.WaitUnit(unit); err != nil {
		return err
	}
	buf, err := db.GetFieldBuffer("particles", "position")
	if err == nil {
		sink(buf)
	}
	return errors.Join(err, db.FinishUnit(unit))
}
