//go:build race

package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"godiva/internal/locktest"
)

// The tests in this file run only under -race: they make the race detector
// see an access to state db.mu guards that a method makes outside the lock,
// however briefly, by running the methods under locktest.Probe with
// touchLocked.

// touchLocked writes every field db.mu guards with the value it already
// holds: the database's, its LRU's and each live unit's — u.read only
// while no read is running, since the goroutine reading the unit reads it
// without the lock by design. Caller holds db.mu.
func (db *DB) touchLocked() {
	for k, v := range db.fieldTypes {
		db.fieldTypes[k] = v
	}
	for k, v := range db.recordTypes {
		db.recordTypes[k] = v
	}
	for k, v := range db.indexes {
		db.indexes[k] = v
	}
	for r := range db.resident {
		db.resident[r] = struct{}{}
	}
	for k, u := range db.units {
		db.units[k] = u
		if u.state != stateReading {
			u.read = locktest.Keep(u.read)
		}
		u.state = locktest.Keep(u.state)
		u.records = locktest.Keep(u.records)
		u.memory = locktest.Keep(u.memory)
		u.refs = locktest.Keep(u.refs)
		u.err = locktest.Keep(u.err)
		u.everAcquired = locktest.Keep(u.everAcquired)
		u.hinted = locktest.Keep(u.hinted)
		u.waiters = locktest.Keep(u.waiters)
		u.inline = locktest.Keep(u.inline)
		u.worker = locktest.Keep(u.worker)
		u.memBlocked = locktest.Keep(u.memBlocked)
		u.allocFailed = locktest.Keep(u.allocFailed)
		u.stateCh = locktest.Keep(u.stateCh)
		u.lruPrev = locktest.Keep(u.lruPrev)
		u.lruNext = locktest.Keep(u.lruNext)
		u.inLRU = locktest.Keep(u.inLRU)
		u.releasers = locktest.Keep(u.releasers)
	}
	for i := range db.workers {
		db.workers[i] = locktest.Keep(db.workers[i])
	}
	db.keyBuf = locktest.Keep(db.keyBuf)
	db.queue = locktest.Keep(db.queue)
	db.lru = locktest.Keep(db.lru)
	db.memCh = locktest.Keep(db.memCh)
	db.queued = locktest.Keep(db.queued)
	db.mem = locktest.Keep(db.mem)
	db.limit = locktest.Keep(db.limit)
	db.closed = locktest.Keep(db.closed)
	for k, list := range db.free {
		db.free[k] = locktest.Keep(list)
	}
	db.free = locktest.Keep(db.free)
	db.freeBytes = locktest.Keep(db.freeBytes)
	db.ioReading = locktest.Keep(db.ioReading)
	db.ioBlocked = locktest.Keep(db.ioBlocked)
	db.inlineReading = locktest.Keep(db.inlineReading)
	db.inlineBlocked = locktest.Keep(db.inlineBlocked)
	db.ioLive = locktest.Keep(db.ioLive)
	db.workers = locktest.Keep(db.workers)
	db.stats = locktest.Keep(db.stats)
	db.events = locktest.Keep(db.events)
}

// probeLockWindows runs script under locktest.Probe on db.mu.
func probeLockWindows(db *DB, script func()) {
	locktest.Probe(script, locktest.Guard{Mu: &db.mu, Touch: db.touchLocked})
}

// TestLockWindows runs every exported method of a database from two
// goroutines, inline and on a pool of I/O workers, with reads that succeed,
// fail, block on memory and are evicted, under probeLockWindows, and
// finally Close.
func TestLockWindows(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("IOWorkers=%d", workers), func(t *testing.T) {
			db := Open(Options{MemoryLimit: 3 * 1024, BackgroundIO: workers > 0, IOWorkers: workers, TraceUnits: true})
			defineBlobSchema(t, db)
			errRead := errors.New("injected read failure")
			failing := func(u *Unit) error {
				if err := blobReader(256, nil)(u); err != nil {
					return err
				}
				return errRead
			}
			probeLockWindows(db, func() {
				var wg sync.WaitGroup
				for _, prefix := range []string{"a", "b"} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 3; i++ {
							lockWindowScript(db, prefix, i, failing)
						}
					}()
				}
				wg.Wait()
				// Close sweeps a unit that is ready and one still queued.
				ignoreRaceErr(db.ReadUnit("kept", blobReader(256, nil)))
				ignoreRaceErr(db.AddUnit("queued", blobReader(256, nil)))
				if err := db.Close(); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

// TestLockWindowsAtClose opens Close's windows many times: each round
// closes, under probeLockWindows, a database holding a resident record, a
// unit that is ready, one that is queued and one that an inline read is
// filling.
func TestLockWindowsAtClose(t *testing.T) {
	for i := 0; i < 20; i++ {
		db := Open(Options{BackgroundIO: i%2 == 0, IOWorkers: 1})
		defineBlobSchema(t, db)
		if err := db.ReadUnit("kept", blobReader(256, nil)); err != nil {
			t.Fatal(err)
		}
		if err := db.AddUnit("queued", blobReader(256, nil)); err != nil {
			t.Fatal(err)
		}
		r, err := db.NewRecord("blob")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetString("name", "resident"); err != nil {
			t.Fatal(err)
		}
		if err := db.CommitRecord(r); err != nil {
			t.Fatal(err)
		}
		started, swept := make(chan struct{}), make(chan struct{})
		read := make(chan error, 1)
		go func() {
			read <- db.ReadUnit("reading", func(u *Unit) error {
				close(started)
				<-swept
				return nil
			})
		}()
		<-started
		probeLockWindows(db, func() {
			if err := db.Close(); err != nil {
				t.Error(err)
			}
		})
		close(swept)
		if err := <-read; !errors.Is(err, ErrClosed) {
			t.Errorf("ReadUnit swept by Close = %v, want ErrClosed", err)
		}
	}
}

// deletesOneOfTwo is a read function that registers a release hook,
// commits two records and deletes the first again.
func deletesOneOfTwo(u *Unit) error {
	u.OnRelease(func() {})
	var first *Record
	for i := 0; i < 2; i++ {
		r, err := u.NewRecord("blob")
		if err != nil {
			return err
		}
		if err := r.SetString("name", fmt.Sprintf("%s.%d", u.Name(), i)); err != nil {
			return err
		}
		if err := u.DB().CommitRecord(r); err != nil {
			return err
		}
		if first == nil {
			first = r
		}
	}
	return u.DB().DeleteRecord(first)
}

// lockWindowScript calls each exported method once or more, on schema and
// unit names that start with prefix.
func lockWindowScript(db *DB, prefix string, i int, failing ReadFunc) {
	name := fmt.Sprintf("%st%d", prefix, i)
	u0, u1, u2, f := prefix+"u0", prefix+"u1", prefix+"u2", prefix+"f"
	ignoreRaceErr(db.DefineField(name, String, 8))
	ignoreRaceErr(db.DefineRecordType(name, 1))
	ignoreRaceErr(db.InsertField(name, name, true))
	ignoreRaceErr(db.CommitRecordType(name))
	if r, err := db.NewRecord(name); err == nil {
		ignoreRaceErr(r.SetString(name, "k"))
		ignoreRaceErr(db.CommitRecord(r))
		ignoreRaceErr(db.DeleteRecord(r))
	}
	// u0 is read, re-added while ready, finished, re-added while cached and
	// evicted; f fails after committing a record, and u2's read registers a
	// release hook and deletes a record of its own.
	ignoreRaceErr(db.AddUnit(u0, blobReader(2048, nil)))
	ignoreRaceErr(db.WaitUnit(u0))
	ignoreRaceErr(db.AddUnit(u0, blobReader(2048, nil)))
	ignoreRaceErr(db.FinishUnit(u0))
	ignoreRaceErr(db.AddUnit(u0, blobReader(2048, nil)))
	// Lowering the limit evicts the finished units, and u0, re-added while
	// cached, goes back to the queue; then the limit goes back.
	limit := db.MemLimit()
	db.SetMemSpace(0)
	db.SetMemSpace(limit)
	if db.ReadUnit(u1, blobReader(2048, nil)) == nil {
		ignoreRaceErr(db.FinishUnit(u1))
	}
	ignoreRaceErr(db.AddUnit(f, failing))
	ignoreRaceErr(db.WaitUnit(f))
	ignoreRaceErr(db.AddUnit(f, failing))
	ignoreRaceErr(db.DeleteUnit(f))
	ignoreRaceErr(db.ReadUnit(u2, deletesOneOfTwo))
	ignoreRaceErr(db.DeleteUnit(u2))
	_, err := db.GetRecord("blob", u1)
	ignoreRaceErr(err)
	_, err = db.GetFieldBuffer("blob", "payload", u1)
	ignoreRaceErr(err)
	_, err = db.GetFieldBufferSize("blob", "payload", u1)
	ignoreRaceErr(err)
	_, err = db.CountRecords("blob")
	ignoreRaceErr(err)
	ignoreRaceErr(db.EachRecord("blob", func(*Record) bool { return true }))
	ignoreRaceErr(db.ScanPrefix("blob", func(*Record) bool { return true }))
	_, err = db.KeyFields("blob")
	ignoreRaceErr(err)
	_, err = db.RecordTypeFields("blob")
	ignoreRaceErr(err)
	db.RecordTypes()
	db.UnitState(u1)
	db.Units()
	db.UnitEvents()
	db.Stats()
	db.IOWorkerStats()
	db.MemUsed()
	db.MemLimit()
	for _, u := range []string{u0, u1, u2, f} {
		ignoreRaceErr(db.DeleteUnit(u))
	}
}
