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

type FilePayload struct{}

func (fp *FilePayload) Recycle() {}

// Client stands in for remote.Client with a FetchFile that reports failure
// as a nil payload, so every shape below is a single-value acquire.
type Client struct{}

func (c *Client) FetchFile(path string) *FilePayload { return nil }

// fetchForCaller hands its payload to the caller, so the leak is wherever a
// caller drops it: dropHandedOffPayload.
func fetchForCaller(c *Client) *FilePayload {
	return c.FetchFile("snap.shdf")
}

func dropHandedOffPayload(c *Client) {
	fetchForCaller(c) // want releasecheck `fetched payload acquired with fetchForCaller leaks on the end of the function`
}

// peek only looks at the payload it is handed: the pin stays with the
// caller.
func peek(fp *FilePayload) bool { return fp != nil }

func leakLentPayload(c *Client) {
	peek(c.FetchFile("snap.shdf")) // want releasecheck `fetched payload acquired with FetchFile leaks on the end of the function`
}

// lendAndDrop lends a bound pin the same way and then forgets it.
func lendAndDrop(c *Client) {
	fp := c.FetchFile("snap.shdf") // want releasecheck `fetched payload acquired with FetchFile leaks on the end of the function`
	if fp == nil {
		return
	}
	peek(fp)
}

// handOffPayload is clean: sink may keep what it is given, so the pin is
// sink's to release.
func handOffPayload(c *Client) {
	sink(c.FetchFile("snap.shdf"))
}

// balancedHandedOffPayload is clean: it releases the pin it was handed, and
// lending it to peek in between changes nothing.
func balancedHandedOffPayload(c *Client) {
	if fp := fetchForCaller(c); fp != nil {
		peek(fp)
		fp.Recycle()
	}
}

func balancedPayload(c *Client) {
	if fp := c.FetchFile("a.shdf"); fp != nil {
		fp.Recycle()
		return
	}
	if fp := c.FetchFile("b.shdf"); fp != nil {
		fp.Recycle()
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
