package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"godiva/internal/platform"
)

// TestQueriesOnClosedDBConsistent pins the closed-DB contract of the whole
// query surface: every query returns ErrClosed after Close, instead of the
// old mix where GetRecord failed but CountRecords/EachRecord silently
// reported an empty database.
func TestQueriesOnClosedDBConsistent(t *testing.T) {
	db := Open(Options{})
	defineFluidSchema(t, db)
	makeFluidRecord(t, db, "block_0001$", "0.000025$")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetRecord("fluid", "block_0001$", "0.000025$"); !errors.Is(err, ErrClosed) {
		t.Fatalf("GetRecord on closed DB: %v, want ErrClosed", err)
	}
	if _, err := db.GetFieldBuffer("fluid", "pressure", "block_0001$", "0.000025$"); !errors.Is(err, ErrClosed) {
		t.Fatalf("GetFieldBuffer on closed DB: %v, want ErrClosed", err)
	}
	if _, err := db.GetFieldBufferSize("fluid", "pressure", "block_0001$", "0.000025$"); !errors.Is(err, ErrClosed) {
		t.Fatalf("GetFieldBufferSize on closed DB: %v, want ErrClosed", err)
	}
	if n, err := db.CountRecords("fluid"); !errors.Is(err, ErrClosed) || n != 0 {
		t.Fatalf("CountRecords on closed DB = %d, %v, want 0, ErrClosed", n, err)
	}
	visited := false
	err := db.EachRecord("fluid", func(r *Record) bool { visited = true; return true })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("EachRecord on closed DB: %v, want ErrClosed", err)
	}
	if visited {
		t.Fatal("EachRecord visited a record on a closed DB")
	}
	if err := db.ScanPrefix("fluid", func(r *Record) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Fatalf("ScanPrefix on closed DB: %v, want ErrClosed", err)
	}
}

// TestCountEachUnknownRecordType pins the other half of the consistency fix:
// counting or iterating a record type that was never defined is an error,
// matching GetRecord, while a defined type with no records is simply empty.
func TestCountEachUnknownRecordType(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	if _, err := db.CountRecords("nonesuch"); !errors.Is(err, ErrUnknownRecordType) {
		t.Fatalf("CountRecords(unknown): %v, want ErrUnknownRecordType", err)
	}
	if err := db.EachRecord("nonesuch", func(r *Record) bool { return true }); !errors.Is(err, ErrUnknownRecordType) {
		t.Fatalf("EachRecord(unknown): %v, want ErrUnknownRecordType", err)
	}
	if n, err := db.CountRecords("fluid"); err != nil || n != 0 {
		t.Fatalf("CountRecords(empty defined type) = %d, %v, want 0, nil", n, err)
	}
	if err := db.EachRecord("fluid", func(r *Record) bool { return true }); err != nil {
		t.Fatalf("EachRecord(empty defined type): %v, want nil", err)
	}
}

// TestKeyLookupZeroAllocs asserts the query path performs no allocation for
// fixed-size keys: the composite key is built in the database's scratch
// buffer (db.keyBuf) instead of a fresh slice per query. Key values are
// pre-boxed so the measurement covers the library, not interface conversion
// at the call site.
func TestKeyLookupZeroAllocs(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	makeFluidRecord(t, db, "block_0001$", "0.000025$")
	keys := []any{"block_0001$", "0.000025$"}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := db.GetFieldBuffer("fluid", "pressure", keys...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("GetFieldBuffer allocates %.1f times per fixed-size-key query, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := db.GetRecord("fluid", keys...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("GetRecord allocates %.1f times per fixed-size-key query, want 0", allocs)
	}
}

// TestDeadlockDetectionUnchangedByWakeupMachinery is the regression test for
// the wakeup channels: the §3.3 detector must fire in exactly the situations
// it fired in under the condition-variable scheme, with concurrent queries
// running the whole time (they take the lock and must neither mask the
// deadlock nor trip it).
func TestDeadlockDetectionUnchangedByWakeupMachinery(t *testing.T) {
	db := newTestDB(t, Options{MemoryLimit: 8192, BackgroundIO: true})
	defineBlobSchema(t, db)
	// A small resident record gives the query goroutine a stable target that
	// no eviction can remove.
	res, err := db.NewRecord("blob")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.SetString("name", "resident"); err != nil {
		t.Fatal(err)
	}
	if _, err := res.AllocFieldBuffer("payload", 1024); err != nil {
		t.Fatal(err)
	}
	if err := db.CommitRecord(res); err != nil {
		t.Fatal(err)
	}
	keys := []any{"resident"}

	// Constant query pressure on the lock while the deadlock forms.
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.GetFieldBuffer("blob", "payload", keys...); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// big0 is pinned ready (never finished): its memory cannot be evicted.
	if err := db.AddUnit("big0", blobReader(2048, nil)); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("big0"); err != nil {
		t.Fatal(err)
	}
	// big1 cannot fit while big0 is pinned; its read blocks on memory, the
	// waiter below registers, and the detector must declare the §3.3
	// deadlock: the consumer neglected to delete the processed unit.
	if err := db.AddUnit("big1", blobReader(8192, nil)); err != nil {
		t.Fatal(err)
	}
	err = db.WaitUnit("big1")
	if !errors.Is(err, ErrUnitFailed) || !errors.Is(err, ErrDeadlock) {
		t.Fatalf("WaitUnit(big1) = %v, want ErrUnitFailed wrapping ErrDeadlock", err)
	}
	if got := db.Stats().Deadlocks; got != 1 {
		t.Fatalf("Stats().Deadlocks = %d, want 1", got)
	}
	if state, ok := db.UnitState("big1"); !ok || state != "failed" {
		t.Fatalf("big1 state = %q, %v, want failed", state, ok)
	}
	// After the consumer frees big0 the failed unit can be re-added and read.
	if err := db.FinishUnit("big0"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteUnit("big0"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddUnit("big1", blobReader(1024, nil)); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("big1"); err != nil {
		t.Fatalf("WaitUnit(big1) after recovery: %v", err)
	}
	close(stop)
	qwg.Wait()
}

// TestDeadlockDetectionSingleThreadUnchanged re-checks the single-thread
// rule under the new machinery: with no I/O thread, a blocking inline read
// that cannot fit must fail immediately with ErrDeadlock rather than wait
// for a wake-up that cannot come.
func TestDeadlockDetectionSingleThreadUnchanged(t *testing.T) {
	db := newTestDB(t, Options{MemoryLimit: 2048})
	defineBlobSchema(t, db)
	// The payload alone fits the limit (so the reservation waits rather than
	// failing with ErrNoMemory), but not together with the record overhead.
	if err := db.AddUnit("big", blobReader(2048, nil)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- db.WaitUnit("big") }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("single-thread WaitUnit = %v, want ErrDeadlock", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("single-thread WaitUnit hung; deadlock detector did not fire")
	}
}

// TestConcurrentChurnStress mixes every class of operation — queries, unit
// add/wait/finish/delete churn through the worker pool, memory-limit shrinks
// and growths — and finishes with Close racing in-flight work. It runs on
// the schedule explorer: each seed draws the compute charged between steps
// and when Close lands, and replays its interleaving exactly; the database
// must never stall, and its invariants must hold after every step.
func TestConcurrentChurnStress(t *testing.T) {
	var queries, cycles int
	for seed := int64(1); seed <= churnSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			onMachine(t, platform.Turing, func(m *platform.Machine, clock Clock) {
				q, c := churnWithClose(t, m, clock, seed)
				queries += q
				cycles += c
			})
		})
	}
	if queries == 0 || cycles == 0 {
		t.Fatalf("stress made no progress: %d queries, %d unit cycles", queries, cycles)
	}
}

func churnWithClose(t *testing.T, m *platform.Machine, clock Clock, seed int64) (queries, cycles int) {
	db := Open(Options{MemoryLimit: 256 << 10, BackgroundIO: true, IOWorkers: 4, Clock: clock})
	defineBlobSchema(t, db)
	// Resident records give the queries stable targets that survive unit
	// churn and eviction.
	for i := 0; i < 8; i++ {
		r, err := db.NewRecord("blob")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetString("name", fmt.Sprintf("res%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.AllocFieldBuffer("payload", 1024); err != nil {
			t.Fatal(err)
		}
		if err := db.CommitRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	step := func() {
		m.Compute(smallCharge(rng))
		audit(db)
	}
	querier := func() {
		for i := 0; i < 60; i++ {
			_, err := db.GetFieldBuffer("blob", "payload", fmt.Sprintf("res%d", i%8))
			if errors.Is(err, ErrClosed) {
				return
			}
			if err != nil {
				t.Errorf("query: %v", err)
				return
			}
			queries++
			step()
		}
	}
	// Churners: add/wait/finish or delete through the pool. Errors from
	// memory pressure (deadlock on a shrunken limit) and Close are expected;
	// anything else is a bug.
	churner := func(g int) func() {
		return func() {
			for i := 0; i < 30; i++ {
				name := fmt.Sprintf("s%d_u%d", g, i%16)
				if err := db.AddUnit(name, blobReader(1024+rng.Intn(8*1024), nil)); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("AddUnit: %v", err)
					}
					return
				}
				step()
				err := db.WaitUnit(name)
				switch {
				case err == nil:
					if rng.Intn(2) == 0 {
						err = db.FinishUnit(name)
					} else {
						err = db.DeleteUnit(name)
					}
					if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrUnknownUnit) {
						t.Errorf("finish/delete: %v", err)
						return
					}
				case errors.Is(err, ErrClosed):
					return
				case errors.Is(err, ErrUnitFailed):
					// Memory pressure killed the read; drop it and move on.
					if err := db.DeleteUnit(name); err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrUnknownUnit) {
						t.Errorf("delete failed unit: %v", err)
						return
					}
				default:
					t.Errorf("WaitUnit: %v", err)
					return
				}
				cycles++
				step()
			}
		}
	}
	// Memory-limit mutator: shrink below the working set, then restore.
	limiter := func() {
		for i := 0; i < 20; i++ {
			if i%2 == 0 {
				db.SetMemSpace(32 << 10)
			} else {
				db.SetMemSpace(256 << 10)
			}
			m.Compute(2 * time.Millisecond)
		}
	}
	// Close with the database still warm, at a seeded moment.
	closer := func() {
		m.Compute(time.Duration(rng.Intn(60)) * time.Millisecond)
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	}
	runAll(clock, querier, churner(0), churner(1), limiter, closer)
	if _, err := db.GetFieldBuffer("blob", "payload", "res0"); !errors.Is(err, ErrClosed) {
		t.Errorf("query after close: %v, want ErrClosed", err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close: %v, want ErrClosed", err)
	}
	if used := db.MemUsed(); used != 0 {
		t.Errorf("MemUsed = %d after Close", used)
	}
	return queries, cycles
}

// TestStatsSnapshotConcurrentWithChurn checks that the Stats snapshot stays
// internally sane while counters move: monotone counters never regress
// between snapshots and UnitsPrefetched never exceeds UnitsRead.
func TestStatsSnapshotConcurrentWithChurn(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true, IOWorkers: 2})
	defineBlobSchema(t, db)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("u%d", i%8)
			if db.AddUnit(name, blobReader(512, nil)) != nil {
				return
			}
			if db.WaitUnit(name) != nil {
				return
			}
			if db.DeleteUnit(name) != nil {
				return
			}
		}
	}()
	var prev Stats
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := db.Stats()
		if s.UnitsAdded < prev.UnitsAdded || s.UnitsRead < prev.UnitsRead ||
			s.UnitsDeleted < prev.UnitsDeleted || s.BytesLoaded < prev.BytesLoaded {
			t.Fatalf("counters regressed: %+v then %+v", prev, s)
		}
		if s.UnitsPrefetched > s.UnitsRead {
			t.Fatalf("UnitsPrefetched %d > UnitsRead %d", s.UnitsPrefetched, s.UnitsRead)
		}
		prev = s
	}
	close(stop)
	wg.Wait()
}
