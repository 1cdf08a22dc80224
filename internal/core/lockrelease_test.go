package core

import (
	"errors"
	"testing"

	"godiva/internal/locktest"
)

// errReadStop fails a test read function on purpose, so the records it made
// are dropped with the failed read.
var errReadStop = errors.New("read stopped by the test")

// blobUnit defines defineBlobSchema's record type and reads the unit name
// with blobReader, leaving it pinned. It reports errors rather than failing
// the test, for use off the test goroutine.
func blobUnit(db *DB, name string) error {
	for _, f := range []struct {
		name string
		typ  DataType
		size int
	}{{"name", String, 16}, {"payload", Bytes, Unknown}} {
		if err := db.DefineField(f.name, f.typ, f.size); err != nil {
			return err
		}
	}
	if err := db.DefineRecordType("blob", 1); err != nil {
		return err
	}
	if err := db.InsertField("blob", "name", true); err != nil {
		return err
	}
	if err := db.InsertField("blob", "payload", false); err != nil {
		return err
	}
	if err := db.CommitRecordType("blob"); err != nil {
		return err
	}
	if err := db.AddUnit(name, blobReader(64, nil)); err != nil {
		return err
	}
	return db.WaitUnit(name)
}

// TestMethodsReleaseDBLock calls every method that takes db.mu and gives it
// back with a deferred Unlock twice, then takes db.mu through Stats and
// Close. A method that returns holding db.mu hangs the second call (or, for
// the methods the set-up calls, the set-up), and locktest.Released fails the
// subtest within seconds. Errors are not checked: a second DefineField or
// FinishUnit fails, but it takes db.mu first, which is all the test looks
// at.
func TestMethodsReleaseDBLock(t *testing.T) {
	newResident := func(db *DB) (*Record, error) {
		r, err := db.NewRecord("blob")
		if err != nil {
			return nil, err
		}
		return r, r.SetString("name", "resident")
	}
	calls := []struct {
		name string
		call func(db *DB) error
	}{
		{"MemLimit", func(db *DB) error { db.MemLimit(); return nil }},
		{"MemUsed", func(db *DB) error { db.MemUsed(); return nil }},
		{"SetMemSpace", func(db *DB) error { db.SetMemSpace(1 << 20); return nil }},
		{"Stats", func(db *DB) error { db.Stats(); return nil }},
		{"IOWorkerStats", func(db *DB) error { db.IOWorkerStats(); return nil }},
		{"UnitEvents", func(db *DB) error { db.UnitEvents(); return nil }},
		{"Units", func(db *DB) error { db.Units(); return nil }},
		{"UnitState", func(db *DB) error { db.UnitState("u0"); return nil }},
		{"RecordTypes", func(db *DB) error { db.RecordTypes(); return nil }},
		{"KeyFields", func(db *DB) error { _, err := db.KeyFields("blob"); return err }},
		{"RecordTypeFields", func(db *DB) error { _, err := db.RecordTypeFields("blob"); return err }},
		{"CountRecords", func(db *DB) error { _, err := db.CountRecords("blob"); return err }},
		{"EachRecord", func(db *DB) error {
			return db.EachRecord("blob", func(*Record) bool { return true })
		}},
		{"ScanPrefix", func(db *DB) error {
			return db.ScanPrefix("blob", func(*Record) bool { return true })
		}},
		{"DefineField", func(db *DB) error { return db.DefineField("extra", Int32, 1) }},
		{"DefineRecordType", func(db *DB) error { return db.DefineRecordType("other", 1) }},
		{"InsertField", func(db *DB) error { return db.InsertField("blob", "name", true) }},
		{"CommitRecordType", func(db *DB) error { return db.CommitRecordType("blob") }},
		{"NewRecord", func(db *DB) error { _, err := db.NewRecord("blob"); return err }},
		{"AllocFieldBuffer", func(db *DB) error {
			r, err := newResident(db)
			if err != nil {
				return err
			}
			_, err = r.AllocFieldBuffer("payload", 8)
			return err
		}},
		{"BorrowFieldBuffer", func(db *DB) error {
			r, err := newResident(db)
			if err != nil {
				return err
			}
			_, err = r.BorrowFieldBuffer("payload", make([]byte, 8))
			return err
		}},
		{"CommitRecord", func(db *DB) error {
			r, err := newResident(db)
			if err != nil {
				return err
			}
			return db.CommitRecord(r)
		}},
		{"DeleteRecord", func(db *DB) error {
			r, err := newResident(db)
			if err != nil {
				return err
			}
			return db.DeleteRecord(r)
		}},
		{"AddUnit", func(db *DB) error { return db.AddUnit("u1", blobReader(64, nil)) }},
		{"ReadUnit", func(db *DB) error { return db.ReadUnit("u2", blobReader(64, nil)) }},
		{"FinishUnit", func(db *DB) error { return db.FinishUnit("u0") }},
		{"DeleteUnit", func(db *DB) error { return db.DeleteUnit("u0") }},
		{"Unit.NewRecord", func(db *DB) error {
			return db.ReadUnit("u3", func(u *Unit) error {
				if _, err := u.NewRecord("blob"); err != nil {
					return err
				}
				if _, err := u.NewRecord("blob"); err != nil {
					return err
				}
				return errReadStop
			})
		}},
		{"Close", func(db *DB) error { return db.Close() }},
	}
	for _, c := range calls {
		ok := t.Run(c.name, func(t *testing.T) {
			db := Open(Options{BackgroundIO: true, MemoryLimit: 1 << 20})
			setup := func() {
				if err := blobUnit(db, "u0"); err != nil {
					t.Error(err)
				}
			}
			call := func() { _ = c.call(db) }
			closeDB := func() {
				if err := db.Close(); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Close: %v", err)
				}
			}
			locktest.Released(t, setup, call, call, func() { db.Stats() }, closeDB)
		})
		if !ok {
			break // a method the set-up or Stats calls would hang every later row too
		}
	}
}
