// Package pairbad seeds a pairing violation for borrowcheck: a unit's field
// buffer used past the unit's release, beside the balanced shape that must
// stay quiet. lint_test.go reads the wants.
package pairbad

import (
	"errors"

	"godiva/internal/core"
)

func sink(any) {}

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
