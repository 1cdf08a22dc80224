package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// defineBlobSchema defines a minimal one-key record type whose payload field
// lets tests control unit sizes precisely.
func defineBlobSchema(t *testing.T, db *DB) {
	t.Helper()
	if err := db.DefineField("name", String, 16); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineField("payload", Bytes, Unknown); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRecordType("blob", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertField("blob", "name", true); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertField("blob", "payload", false); err != nil {
		t.Fatal(err)
	}
	if err := db.CommitRecordType("blob"); err != nil {
		t.Fatal(err)
	}
}

// blobReader returns a ReadFunc that stores one record named after the unit
// with a payload of size bytes, and counts its invocations.
func blobReader(size int, calls *atomic.Int64) ReadFunc {
	return func(u *Unit) error {
		if calls != nil {
			calls.Add(1)
		}
		r, err := u.NewRecord("blob")
		if err != nil {
			return err
		}
		if err := r.SetString("name", u.Name()); err != nil {
			return err
		}
		if _, err := r.AllocFieldBuffer("payload", size); err != nil {
			return err
		}
		return u.DB().CommitRecord(r)
	}
}

func TestAddWaitFinishDeleteBatchFlow(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true})
	defineBlobSchema(t, db)
	var calls atomic.Int64
	// The paper's batch-mode pattern: add all units up front, then wait,
	// process, delete each in order.
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("file%d", i)
		if err := db.AddUnit(name, blobReader(1024, &calls)); err != nil {
			t.Fatalf("AddUnit(%s): %v", name, err)
		}
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("file%d", i)
		if err := db.WaitUnit(name); err != nil {
			t.Fatalf("WaitUnit(%s): %v", name, err)
		}
		if _, err := db.GetFieldBuffer("blob", "payload", name); err != nil {
			t.Fatalf("query %s after wait: %v", name, err)
		}
		if err := db.DeleteUnit(name); err != nil {
			t.Fatalf("DeleteUnit(%s): %v", name, err)
		}
		if _, err := db.GetFieldBuffer("blob", "payload", name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("query %s after delete: %v, want ErrNotFound", name, err)
		}
	}
	if got := calls.Load(); got != 8 {
		t.Fatalf("read function ran %d times, want 8", got)
	}
	s := db.Stats()
	if s.UnitsRead != 8 || s.UnitsPrefetched != 8 || s.UnitsDeleted != 8 {
		t.Fatalf("stats = %+v", s)
	}
	if db.MemUsed() != 0 {
		t.Fatalf("MemUsed = %d after deleting all units", db.MemUsed())
	}
}

func TestSingleThreadModeReadsInline(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: false})
	defineBlobSchema(t, db)
	var calls atomic.Int64
	if err := db.AddUnit("u1", blobReader(64, &calls)); err != nil {
		t.Fatal(err)
	}
	// No background goroutine: nothing has been read yet.
	time.Sleep(10 * time.Millisecond)
	if got := calls.Load(); got != 0 {
		t.Fatalf("read ran %d times before WaitUnit in single-thread mode", got)
	}
	if err := db.WaitUnit("u1"); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("read ran %d times after WaitUnit, want 1", got)
	}
	s := db.Stats()
	if s.UnitsPrefetched != 0 {
		t.Fatalf("UnitsPrefetched = %d in single-thread mode", s.UnitsPrefetched)
	}
}

func TestWaitUnknownUnit(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true})
	if err := db.WaitUnit("nope"); !errors.Is(err, ErrUnknownUnit) {
		t.Fatalf("WaitUnit(unknown): %v, want ErrUnknownUnit", err)
	}
	if err := db.FinishUnit("nope"); !errors.Is(err, ErrUnknownUnit) {
		t.Fatalf("FinishUnit(unknown): %v, want ErrUnknownUnit", err)
	}
	if err := db.DeleteUnit("nope"); !errors.Is(err, ErrUnknownUnit) {
		t.Fatalf("DeleteUnit(unknown): %v, want ErrUnknownUnit", err)
	}
}

func TestReadUnitCacheHit(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true})
	defineBlobSchema(t, db)
	var calls atomic.Int64
	rd := blobReader(256, &calls)
	// Interactive pattern: explicit blocking read, finish (not delete), then
	// revisit. The revisit must hit the cache and skip I/O.
	if err := db.ReadUnit("snap", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.FinishUnit("snap"); err != nil {
		t.Fatal(err)
	}
	if err := db.ReadUnit("snap", rd); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("read ran %d times, want 1 (second access must be a cache hit)", got)
	}
	if db.Stats().CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", db.Stats().CacheHits)
	}
	if state, ok := db.UnitState("snap"); !ok || state != "ready" {
		t.Fatalf("unit state = %q,%v after re-pin, want ready", state, ok)
	}
}

func TestFinishMakesEvictableDeleteFrees(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true})
	defineBlobSchema(t, db)
	if err := db.ReadUnit("a", blobReader(1000, nil)); err != nil {
		t.Fatal(err)
	}
	used := db.MemUsed()
	if used == 0 {
		t.Fatal("MemUsed = 0 after read")
	}
	if err := db.FinishUnit("a"); err != nil {
		t.Fatal(err)
	}
	// Finish keeps the data cached.
	if db.MemUsed() != used {
		t.Fatalf("MemUsed changed on FinishUnit: %d -> %d", used, db.MemUsed())
	}
	if _, err := db.GetFieldBuffer("blob", "payload", "a"); err != nil {
		t.Fatalf("query of finished unit: %v", err)
	}
	if err := db.DeleteUnit("a"); err != nil {
		t.Fatal(err)
	}
	if db.MemUsed() != 0 {
		t.Fatalf("MemUsed = %d after DeleteUnit", db.MemUsed())
	}
}

func TestFinishUnitRefCounting(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true})
	defineBlobSchema(t, db)
	if err := db.AddUnit("a", blobReader(100, nil)); err != nil {
		t.Fatal(err)
	}
	// Two consumers wait on the same unit (paper keeps refcounts at unit
	// level): it must stay pinned until both finish.
	if err := db.WaitUnit("a"); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("a"); err != nil {
		t.Fatal(err)
	}
	if err := db.FinishUnit("a"); err != nil {
		t.Fatal(err)
	}
	if state, _ := db.UnitState("a"); state != "ready" {
		t.Fatalf("state = %q after first finish, want ready (one consumer left)", state)
	}
	if err := db.FinishUnit("a"); err != nil {
		t.Fatal(err)
	}
	if state, _ := db.UnitState("a"); state != "finished" {
		t.Fatalf("state = %q after last finish, want finished", state)
	}
	// Finishing an already-finished unit is a no-op.
	if err := db.FinishUnit("a"); err != nil {
		t.Fatal(err)
	}
	// Two consumers re-pin the cached unit, the first from finished, the
	// second from ready: it stays pinned until both finish again.
	for range 2 {
		if err := db.WaitUnit("a"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FinishUnit("a"); err != nil {
		t.Fatal(err)
	}
	if state, _ := db.UnitState("a"); state != "ready" {
		t.Fatalf("state = %q after the first finish of two re-pins, want ready", state)
	}
	if err := db.FinishUnit("a"); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Limit fits roughly three 1000-byte units plus overhead.
	db := newTestDB(t, Options{BackgroundIO: true, MemoryLimit: 4000})
	defineBlobSchema(t, db)
	rd := blobReader(1000, nil)
	for _, n := range []string{"u1", "u2", "u3"} {
		if err := db.ReadUnit(n, rd); err != nil {
			t.Fatalf("ReadUnit(%s): %v", n, err)
		}
		if err := db.FinishUnit(n); err != nil {
			t.Fatal(err)
		}
	}
	// Touch u1 so u2 becomes least recently used.
	if err := db.ReadUnit("u1", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.FinishUnit("u1"); err != nil {
		t.Fatal(err)
	}
	// Reading u4 must evict u2 (LRU), not u1 or u3.
	if err := db.ReadUnit("u4", rd); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.UnitState("u2"); ok {
		t.Fatal("u2 still present; LRU eviction picked the wrong unit")
	}
	for _, n := range []string{"u1", "u3", "u4"} {
		if _, ok := db.UnitState(n); !ok {
			t.Fatalf("%s was evicted; LRU order wrong", n)
		}
	}
	if db.Stats().UnitsEvicted != 1 {
		t.Fatalf("UnitsEvicted = %d, want 1", db.Stats().UnitsEvicted)
	}
}

func TestPinnedUnitsAreNotEvicted(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true, MemoryLimit: 2600})
	defineBlobSchema(t, db)
	rd := blobReader(1000, nil)
	if err := db.ReadUnit("pinned", rd); err != nil {
		t.Fatal(err)
	}
	// "pinned" is Ready (never finished): a second unit fits…
	if err := db.ReadUnit("b", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.FinishUnit("b"); err != nil {
		t.Fatal(err)
	}
	// …and a third must evict "b", never "pinned".
	if err := db.ReadUnit("c", rd); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.UnitState("pinned"); !ok {
		t.Fatal("pinned (unfinished) unit was evicted")
	}
	if _, ok := db.UnitState("b"); ok {
		t.Fatal("finished unit b was not evicted under memory pressure")
	}
}

func TestPrefetchBlocksUntilMemoryFreed(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true, MemoryLimit: 2600})
	defineBlobSchema(t, db)
	rd := blobReader(1000, nil)
	for i := 0; i < 4; i++ {
		if err := db.AddUnit(fmt.Sprintf("u%d", i), rd); err != nil {
			t.Fatal(err)
		}
	}
	// Process in order; each unit is deleted after use, so the prefetcher
	// (blocked on memory after two units) resumes as space frees: the
	// paper's double-buffering regime.
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("u%d", i)
		if err := db.WaitUnit(name); err != nil {
			t.Fatalf("WaitUnit(%s): %v", name, err)
		}
		if err := db.DeleteUnit(name); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.Stats(); s.UnitsRead != 4 || s.Deadlocks != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// One unit's payload cannot fit alongside the first unit, the first is
	// never finished or deleted, and the main goroutine waits on the second:
	// the paper's §3.3 deadlock. The database must detect it and fail the
	// second unit rather than hang.
	db := newTestDB(t, Options{BackgroundIO: true, MemoryLimit: 2600})
	defineBlobSchema(t, db)
	rd := blobReader(1800, nil)
	if err := db.AddUnit("first", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.AddUnit("second", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("first"); err != nil {
		t.Fatal(err)
	}
	err := db.WaitUnit("second") // developer "neglected" to delete first
	if !errors.Is(err, ErrUnitFailed) || !errors.Is(err, ErrDeadlock) {
		t.Fatalf("WaitUnit(second) = %v, want ErrUnitFailed wrapping ErrDeadlock", err)
	}
	if db.Stats().Deadlocks == 0 {
		t.Fatal("Deadlocks counter not incremented")
	}
	// The first unit remains usable.
	if _, err := db.GetFieldBuffer("blob", "payload", "first"); err != nil {
		t.Fatalf("first unit unusable after deadlock: %v", err)
	}
	// After freeing memory, re-adding the failed unit succeeds.
	if err := db.DeleteUnit("first"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddUnit("second", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("second"); err != nil {
		t.Fatalf("retry of failed unit: %v", err)
	}
}

func TestOversizedUnitFailsOutright(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true, MemoryLimit: 1000})
	defineBlobSchema(t, db)
	if err := db.AddUnit("huge", blobReader(100000, nil)); err != nil {
		t.Fatal(err)
	}
	err := db.WaitUnit("huge")
	if !errors.Is(err, ErrUnitFailed) || !errors.Is(err, ErrNoMemory) {
		t.Fatalf("WaitUnit(huge) = %v, want ErrUnitFailed wrapping ErrNoMemory", err)
	}
}

func TestReadFunctionErrorPropagates(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true})
	defineBlobSchema(t, db)
	boom := errors.New("corrupt file")
	if err := db.AddUnit("bad", func(u *Unit) error {
		// Allocate something, then fail: partial records must be rolled back.
		r, err := u.NewRecord("blob")
		if err != nil {
			return err
		}
		if err := r.SetString("name", "partial"); err != nil {
			return err
		}
		if _, err := r.AllocFieldBuffer("payload", 512); err != nil {
			return err
		}
		if err := u.DB().CommitRecord(r); err != nil {
			return err
		}
		return boom
	}); err != nil {
		t.Fatal(err)
	}
	err := db.WaitUnit("bad")
	if !errors.Is(err, ErrUnitFailed) || !errors.Is(err, boom) {
		t.Fatalf("WaitUnit = %v, want ErrUnitFailed wrapping the read error", err)
	}
	// The partial record was rolled back.
	if _, err := db.GetFieldBuffer("blob", "payload", "partial"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("partial record visible after failed read: %v", err)
	}
	if db.MemUsed() != 0 {
		t.Fatalf("MemUsed = %d after failed read", db.MemUsed())
	}
	if s := db.Stats(); s.UnitsFailed != 1 {
		t.Fatalf("UnitsFailed = %d", s.UnitsFailed)
	}
}

// TestQueriesHideRecordsOfRunningRead parks a read after it commits a record
// and then fails it. While the read runs, no query answers the record, so no
// caller can hold a *Record whose buffers the failure drops without the
// caller's lock; a querier racing the failure checks that under -race.
func TestQueriesHideRecordsOfRunningRead(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true})
	defineBlobSchema(t, db)
	boom := errors.New("read failed after commit")
	committed, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unpark) // runs before newTestDB's Close, which waits for the read
	if err := db.AddUnit("u", func(u *Unit) error {
		if err := blobReader(64, nil)(u); err != nil {
			return err
		}
		close(committed)
		<-release
		return boom
	}); err != nil {
		t.Fatal(err)
	}
	<-committed
	if _, err := db.GetRecord("blob", "u"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetRecord during the read = %v, want ErrNotFound", err)
	}
	if _, err := db.GetFieldBuffer("blob", "payload", "u"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetFieldBuffer during the read = %v, want ErrNotFound", err)
	}
	if n, err := db.CountRecords("blob"); err != nil || n != 0 {
		t.Fatalf("CountRecords during the read = %d, %v, want 0", n, err)
	}
	visit := func(r *Record) bool {
		t.Errorf("a scan visited %s's record during the read", r.unit.name)
		return true
	}
	if err := db.EachRecord("blob", visit); err != nil {
		t.Fatal(err)
	}
	if err := db.ScanPrefix("blob", visit); err != nil {
		t.Fatal(err)
	}

	failed := make(chan struct{})
	querierDone := make(chan struct{})
	go func() {
		defer close(querierDone)
		for {
			if r, err := db.GetRecord("blob", "u"); err == nil {
				t.Error("GetRecord answered the record of a running or failed read")
				r.FieldBuffer("payload")
				return
			}
			select {
			case <-failed:
				return
			default:
			}
		}
	}()
	unpark()
	err := db.WaitUnit("u")
	close(failed)
	<-querierDone
	if !errors.Is(err, ErrUnitFailed) || !errors.Is(err, boom) {
		t.Fatalf("WaitUnit = %v, want ErrUnitFailed wrapping the read error", err)
	}
}

func TestAddUnitOnCachedUnitIsHit(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true})
	defineBlobSchema(t, db)
	var calls atomic.Int64
	rd := blobReader(128, &calls)
	if err := db.ReadUnit("s", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.FinishUnit("s"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddUnit("s", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("s"); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("read ran %d times; re-add of cached unit must not re-read", calls.Load())
	}
}

// A cached unit that AddUnit re-adds keeps the hint: evicted before a
// consumer acquires it — by a SetMemSpace shrink, or by another unit's read —
// it goes back to the prefetch queue and is read again with the read
// function of the re-add, so the WaitUnit the hint promises succeeds instead
// of returning ErrUnknownUnit.
func TestReAddedCachedUnitSurvivesEviction(t *testing.T) {
	for _, background := range []bool{false, true} {
		t.Run(fmt.Sprintf("BackgroundIO=%v", background), func(t *testing.T) {
			db := newTestDB(t, Options{BackgroundIO: background, MemoryLimit: 100000})
			defineBlobSchema(t, db)
			var first, second atomic.Int64
			if err := db.ReadUnit("a", blobReader(1000, &first)); err != nil {
				t.Fatal(err)
			}
			if err := db.FinishUnit("a"); err != nil {
				t.Fatal(err)
			}
			unit := db.MemUsed()
			if err := db.AddUnit("a", blobReader(1000, &second)); err != nil {
				t.Fatal(err)
			}
			if background {
				// Room for one unit: reading b evicts a.
				db.SetMemSpace(unit * 3 / 2)
				if err := db.AddUnit("b", blobReader(1000, nil)); err != nil {
					t.Fatal(err)
				}
				if err := db.WaitUnit("b"); err != nil {
					t.Fatal(err)
				}
				if err := db.DeleteUnit("b"); err != nil {
					t.Fatal(err)
				}
			} else {
				db.SetMemSpace(unit / 2)
				if state, ok := db.UnitState("a"); !ok || state != "pending" {
					t.Fatalf("evicted re-added unit is %q (known %v), want pending", state, ok)
				}
				db.SetMemSpace(100000)
			}
			if err := db.WaitUnit("a"); err != nil {
				t.Fatalf("WaitUnit after the re-added unit's eviction: %v", err)
			}
			if first.Load() != 1 || second.Load() != 1 {
				t.Fatalf("reads: first read function %d, re-add's %d; want 1 and 1", first.Load(), second.Load())
			}
			reads := int64(2) // a twice, and b when it did the evicting
			if background {
				reads++
			}
			if s := db.Stats(); s.UnitsEvicted != 1 || s.UnitsRead != reads {
				t.Fatalf("UnitsEvicted %d, UnitsRead %d; want 1 and %d", s.UnitsEvicted, s.UnitsRead, reads)
			}
			// Consumed, the hint is spent: the next eviction drops the unit.
			if err := db.FinishUnit("a"); err != nil {
				t.Fatal(err)
			}
			db.SetMemSpace(0)
			if _, ok := db.UnitState("a"); ok {
				t.Fatal("a consumed unit survived eviction")
			}
		})
	}
}

func TestSetMemSpaceEvictsWhenLowered(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true, MemoryLimit: 100000})
	defineBlobSchema(t, db)
	rd := blobReader(1000, nil)
	for _, n := range []string{"a", "b", "c"} {
		if err := db.ReadUnit(n, rd); err != nil {
			t.Fatal(err)
		}
		if err := db.FinishUnit(n); err != nil {
			t.Fatal(err)
		}
	}
	db.SetMemSpace(1500) // room for about one unit
	if got := db.MemUsed(); got > 1500 {
		t.Fatalf("MemUsed = %d after SetMemSpace(1500)", got)
	}
	if db.Stats().UnitsEvicted < 2 {
		t.Fatalf("UnitsEvicted = %d, want >= 2", db.Stats().UnitsEvicted)
	}
}

func TestDeleteUnitWhileQueued(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: false})
	defineBlobSchema(t, db)
	var calls atomic.Int64
	if err := db.AddUnit("q", blobReader(100, &calls)); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteUnit("q"); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("q"); !errors.Is(err, ErrUnknownUnit) {
		t.Fatalf("WaitUnit(deleted) = %v, want ErrUnknownUnit", err)
	}
	if calls.Load() != 0 {
		t.Fatal("deleted queued unit was still read")
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	db := Open(Options{BackgroundIO: true})
	defineBlobSchema(t, db)
	block := make(chan struct{})
	if err := db.AddUnit("slow", func(u *Unit) error {
		<-block
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- db.WaitUnit("slow") }()
	time.Sleep(20 * time.Millisecond)
	close(block) // let the read finish so Close can join the I/O goroutine
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		// Either the unit completed just before close, or the waiter saw
		// ErrClosed; both are acceptable, hanging is not.
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("waiter error = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitUnit hung across Close")
	}
}

func TestConcurrentConsumers(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true, MemoryLimit: 1 << 24})
	defineBlobSchema(t, db)
	var calls atomic.Int64
	const units = 20
	for i := 0; i < units; i++ {
		if err := db.AddUnit(fmt.Sprintf("u%02d", i), blobReader(4096, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, units*3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < units; i++ {
				name := fmt.Sprintf("u%02d", i)
				if err := db.WaitUnit(name); err != nil {
					errs <- fmt.Errorf("wait %s: %w", name, err)
					return
				}
				if _, err := db.GetFieldBuffer("blob", "payload", name); err != nil {
					errs <- fmt.Errorf("query %s: %w", name, err)
					return
				}
				if err := db.FinishUnit(name); err != nil {
					errs <- fmt.Errorf("finish %s: %w", name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if calls.Load() != units {
		t.Fatalf("read ran %d times, want %d", calls.Load(), units)
	}
}

func TestVisibleWaitAccounting(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true})
	defineBlobSchema(t, db)
	if err := db.AddUnit("slow", func(u *Unit) error {
		time.Sleep(50 * time.Millisecond)
		return blobReader(64, nil)(u)
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("slow"); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.VisibleWait < 20*time.Millisecond {
		t.Fatalf("VisibleWait = %v, expected to include the blocking wait", s.VisibleWait)
	}
	if s.ReadTime < 50*time.Millisecond {
		t.Fatalf("ReadTime = %v, want >= 50ms", s.ReadTime)
	}
}

// DeleteUnit on a unit whose read is blocked on memory is itself a stuck
// waiter: the deadlock detector must fail the read so the delete proceeds,
// rather than both hanging (a corner of the paper's §3.3 condition).
func TestDeleteUnitWhileReadBlockedOnMemory(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true, MemoryLimit: 2600})
	defineBlobSchema(t, db)
	rd := blobReader(1800, nil)
	if err := db.AddUnit("first", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("first"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddUnit("second", rd); err != nil {
		t.Fatal(err)
	}
	// Give the I/O goroutine time to start reading "second" and block.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if state, ok := db.UnitState("second"); ok && state == "reading" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second never started reading")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- db.DeleteUnit("second") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("DeleteUnit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DeleteUnit hung on a memory-blocked read")
	}
	if _, ok := db.UnitState("second"); ok {
		t.Fatal("second still present after delete")
	}
	// The pinned unit is untouched.
	if _, err := db.GetFieldBuffer("blob", "payload", "first"); err != nil {
		t.Fatalf("first unit lost: %v", err)
	}
}

// A randomized lifecycle stress: many goroutines adding, waiting,
// finishing and deleting overlapping units must neither race (run with
// -race) nor wedge, and the database must end empty.
func TestConcurrentLifecycleStress(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true, MemoryLimit: 1 << 20})
	defineBlobSchema(t, db)
	rd := blobReader(2048, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("u%02d", (g*7+i)%12)
				switch i % 4 {
				case 0:
					ignoreRaceErr(db.AddUnit(name, rd))
				case 1:
					if err := db.ReadUnit(name, rd); err == nil {
						ignoreRaceErr(db.FinishUnit(name))
					}
				case 2:
					if err := db.WaitUnit(name); err == nil {
						ignoreRaceErr(db.FinishUnit(name))
					}
				case 3:
					ignoreRaceErr(db.DeleteUnit(name))
				}
			}
		}(g)
	}
	wg.Wait()
	for _, u := range db.Units() {
		if err := db.DeleteUnit(u.Name); err != nil {
			t.Fatalf("delete %s after churn: %v", u.Name, err)
		}
	}
	if used := db.MemUsed(); used != 0 {
		t.Fatalf("MemUsed = %d after deleting everything", used)
	}
}
