package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"godiva/internal/platform"
)

// queueShape returns the prefetch FIFO's length and capacity.
func queueShape(db *DB) (n, c int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.queue), cap(db.queue)
}

// Regression: UnitsPrefetched must count only successful background reads —
// a failed read (or a unit deleted mid-read) completes a dispatch but loads
// nothing, and UnitsPrefetched is documented as a subset of UnitsRead.
func TestPrefetchedCountsOnlySuccessfulReads(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true})
	defineBlobSchema(t, db)
	boom := errors.New("corrupt file")
	if err := db.AddUnit("bad", func(u *Unit) error { return boom }); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("bad"); !errors.Is(err, boom) {
		t.Fatalf("WaitUnit(bad) = %v, want the read error", err)
	}
	// The counters move in the critical section that ends the read, so they
	// are settled once WaitUnit returns.
	s := db.Stats()
	if s.UnitsFailed != 1 {
		t.Fatalf("UnitsFailed = %d after a failed background read, want 1", s.UnitsFailed)
	}
	if s.UnitsPrefetched != 0 {
		t.Fatalf("UnitsPrefetched = %d after a failed background read, want 0", s.UnitsPrefetched)
	}
	if err := db.AddUnit("good", blobReader(64, nil)); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("good"); err != nil {
		t.Fatal(err)
	}
	s = db.Stats()
	if s.UnitsPrefetched != 1 {
		t.Fatalf("UnitsPrefetched = %d after one successful background read, want 1", s.UnitsPrefetched)
	}
	if s.UnitsPrefetched > s.UnitsRead {
		t.Fatalf("UnitsPrefetched = %d > UnitsRead = %d; invariant broken", s.UnitsPrefetched, s.UnitsRead)
	}
	ws := db.IOWorkerStats()
	if len(ws) != 1 || ws[0].Prefetched != 1 || ws[0].Failed != 1 {
		t.Fatalf("IOWorkerStats = %+v, want worker 0 with Prefetched=1 Failed=1", ws)
	}
}

// Regression: in single-thread mode nothing used to drain the prefetch
// FIFO — units added and then read inline by WaitUnit stayed queued forever,
// pinning the unit and growing the slice unboundedly across time steps.
func TestSingleThreadQueueDoesNotLeak(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: false})
	defineBlobSchema(t, db)
	rd := blobReader(256, nil)
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("step%d", i)
		if err := db.AddUnit(name, rd); err != nil {
			t.Fatal(err)
		}
		if err := db.WaitUnit(name); err != nil {
			t.Fatal(err)
		}
		if n, _ := queueShape(db); n != 0 {
			t.Fatalf("step %d: %d units still queued after inline read", i, n)
		}
		if err := db.DeleteUnit(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, c := queueShape(db); c > 16 {
		t.Fatalf("queue capacity grew to %d across 200 time steps", c)
	}
	db.mu.Lock()
	live := len(db.units)
	db.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d units still live after deleting every one", live)
	}
	// A unit deleted while queued must leave the FIFO too.
	if err := db.AddUnit("q", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteUnit("q"); err != nil {
		t.Fatal(err)
	}
	if n, _ := queueShape(db); n != 0 {
		t.Fatalf("%d units queued after deleting the only pending unit", n)
	}
}

// Regression: an allocation made outside any read function (owner == nil)
// in single-thread mode used to wait forever when memory was exhausted with
// nothing evictable — with no I/O goroutine there is no other thread that
// could ever free memory, so the §3.3 detector must fire.
func TestPlainAllocDeadlockSingleThread(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: false, MemoryLimit: 2000})
	defineBlobSchema(t, db)
	if err := db.AddUnit("pin", blobReader(1000, nil)); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("pin"); err != nil { // ready and pinned: not evictable
		t.Fatal(err)
	}
	rec, err := db.NewRecord("blob")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := rec.AllocFieldBuffer("payload", 1500)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("AllocFieldBuffer = %v, want ErrDeadlock", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("plain allocation hung in single-thread mode instead of detecting the deadlock")
	}
	if db.Stats().Deadlocks == 0 {
		t.Fatal("Deadlocks counter not incremented")
	}
}

// TestWaiterUnregisters pins the waiter count the §3.3 detector reads
// (stuckWaiterLocked): a WaitUnit that slept through a unit's read leaves
// no waiter behind, or a later allocation could see a consumer stuck on a
// unit nobody waits for.
func TestWaiterUnregisters(t *testing.T) {
	onMachine(t, platform.Turing, func(m *platform.Machine, clock *seedClock) {
		db := clock.open(Options{BackgroundIO: true})
		defer db.Close()
		defineBlobSchema(t, db)
		if err := db.AddUnit("a", chargedBlobReader(m, 64, time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if err := db.WaitUnit("a"); err != nil {
			t.Fatal(err)
		}
		db.mu.Lock()
		waiters := db.units["a"].waiters
		db.mu.Unlock()
		if waiters != 0 {
			t.Errorf("unit a has %d waiters after its only WaitUnit returned", waiters)
		}
		if s := db.Stats(); s.VisibleWait == 0 {
			t.Error("WaitUnit returned without waiting for the read")
		}
	})
}

// A pool of 4 workers must actually overlap reads — with slow read functions
// several units are in flight at once — while the paper's single I/O thread
// never does, and every successful background read is counted exactly once.
func TestWorkerPoolConcurrentReads(t *testing.T) {
	for _, workers := range []int{1, 4} {
		db := newTestDB(t, Options{BackgroundIO: true, IOWorkers: workers})
		defineBlobSchema(t, db)
		var inFlight, peak atomic.Int64
		const units = 8
		rd := func(u *Unit) error {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(30 * time.Millisecond)
			inFlight.Add(-1)
			return blobReader(128, nil)(u)
		}
		for i := 0; i < units; i++ {
			if err := db.AddUnit(fmt.Sprintf("u%d", i), rd); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < units; i++ {
			if err := db.WaitUnit(fmt.Sprintf("u%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if p := peak.Load(); (p >= 2) != (workers > 1) {
			t.Fatalf("peak in-flight reads = %d with %d workers, want 1 for one worker and >= 2 for a pool", p, workers)
		}
		s := db.Stats()
		if s.UnitsRead != units || s.UnitsPrefetched != units {
			t.Fatalf("workers=%d: UnitsRead = %d, UnitsPrefetched = %d, want %d", workers, s.UnitsRead, s.UnitsPrefetched, units)
		}
		var perWorker int64
		for _, ws := range db.IOWorkerStats() {
			perWorker += ws.Prefetched
		}
		if perWorker != units {
			t.Fatalf("workers=%d: per-worker Prefetched sums to %d, want %d", workers, perWorker, units)
		}
	}
}

// Dispatch must stay in AddUnit order even with many workers: every pop
// takes the FIFO head under the lock, so the pending->reading transitions in
// the event log appear in AddUnit order (completion order may differ).
func TestWorkerPoolDispatchOrder(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true, IOWorkers: 4, TraceUnits: true})
	defineBlobSchema(t, db)
	rd := func(u *Unit) error {
		time.Sleep(2 * time.Millisecond)
		return blobReader(64, nil)(u)
	}
	const units = 24
	for i := 0; i < units; i++ {
		if err := db.AddUnit(fmt.Sprintf("u%02d", i), rd); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < units; i++ {
		if err := db.WaitUnit(fmt.Sprintf("u%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var dispatched []string
	for _, ev := range db.UnitEvents() {
		if ev.From == "pending" && ev.To == "reading" {
			dispatched = append(dispatched, ev.Unit)
			if ev.Worker < 0 || ev.Worker >= 4 {
				t.Fatalf("dispatch of %s attributed to worker %d", ev.Unit, ev.Worker)
			}
		}
	}
	if len(dispatched) != units {
		t.Fatalf("%d dispatch events, want %d", len(dispatched), units)
	}
	for i, name := range dispatched {
		if want := fmt.Sprintf("u%02d", i); name != want {
			t.Fatalf("dispatch %d was %s, want %s (AddUnit order)", i, name, want)
		}
	}
}

// The generalized detector must not cry wolf: a batch pipeline that deletes
// each unit after use always makes progress — workers blocked on memory
// resume as the consumer frees space. With one worker, units complete in
// AddUnit order, so the strict-FIFO consumer of the paper works; with a
// pool, completion is out of order, so the consumer takes units as they
// become ready (a FIFO consumer under a tight limit can genuinely deadlock
// when memory fills with ready units it is not yet willing to consume —
// see DESIGN.md). The pipeline runs on a simulated machine, so the pool's
// consumer polls in virtual time.
func TestWorkerPoolNoFalseDeadlock(t *testing.T) {
	const units = 8
	names := make([]string, units)
	for i := range names {
		names[i] = fmt.Sprintf("u%d", i)
	}
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("IOWorkers=%d", w), func(t *testing.T) {
			var s Stats
			onMachine(t, platform.Turing, func(m *platform.Machine, clock *seedClock) {
				db := clock.open(Options{BackgroundIO: true, IOWorkers: w, MemoryLimit: 3900})
				defer db.Close()
				defineBlobSchema(t, db)
				rd := chargedBlobReader(m, 1000, 5*time.Millisecond)
				for _, name := range names {
					if err := db.AddUnit(name, rd); err != nil {
						t.Fatal(err)
					}
				}
				if w == 1 {
					for _, name := range names {
						if err := db.WaitUnit(name); err != nil {
							t.Fatalf("WaitUnit(%s): %v", name, err)
						}
						if err := db.DeleteUnit(name); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					done := make(map[string]bool, units)
					deadline := m.Now().Add(10 * time.Second)
					for len(done) < units {
						if m.Now().After(deadline) {
							t.Fatalf("pipeline wedged with %d/%d units consumed", len(done), units)
						}
						picked := ""
						for _, name := range names {
							if done[name] {
								continue
							}
							if st, ok := db.UnitState(name); ok && (st == "ready" || st == "finished") {
								picked = name
								break
							}
						}
						if picked == "" {
							m.Compute(time.Millisecond)
							continue
						}
						if err := db.WaitUnit(picked); err != nil {
							t.Fatalf("WaitUnit(%s): %v", picked, err)
						}
						if err := db.DeleteUnit(picked); err != nil {
							t.Fatal(err)
						}
						done[picked] = true
					}
				}
				s = db.Stats()
			})
			if s.Deadlocks != 0 {
				t.Fatalf("Deadlocks = %d in a progressing pipeline", s.Deadlocks)
			}
			if s.UnitsRead != units {
				t.Fatalf("UnitsRead = %d, want %d", s.UnitsRead, units)
			}
		})
	}
}

// The §3.3 rule generalized to a pool: when every worker is stuck on memory
// and the application is blocked waiting on one of their units, the waited-on
// read must fail with ErrDeadlock; after the application frees memory the
// remaining units are still readable.
func TestWorkerPoolDeadlockDetected(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true, IOWorkers: 2, MemoryLimit: 2600})
	defineBlobSchema(t, db)
	rd := blobReader(1800, nil)
	if err := db.AddUnit("first", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("first"); err != nil { // pinned, fills most of memory
		t.Fatal(err)
	}
	if err := db.AddUnit("second", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.AddUnit("third", rd); err != nil {
		t.Fatal(err)
	}
	err := db.WaitUnit("second") // both workers stuck; this waiter is provably stuck too
	if !errors.Is(err, ErrUnitFailed) || !errors.Is(err, ErrDeadlock) {
		t.Fatalf("WaitUnit(second) = %v, want ErrUnitFailed wrapping ErrDeadlock", err)
	}
	if db.Stats().Deadlocks == 0 {
		t.Fatal("Deadlocks counter not incremented")
	}
	// Recovery: free the pinned unit, clear third (its read may be blocked
	// or failed; DeleteUnit resolves either), then the failed unit reads
	// fine on retry.
	if err := db.DeleteUnit("first"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteUnit("third"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddUnit("second", rd); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit("second"); err != nil {
		t.Fatalf("retry of deadlocked unit: %v", err)
	}
}

// Close must join every worker in the pool, never hang, and leave the
// database empty.
func TestCloseStopsWorkerPool(t *testing.T) {
	db := Open(Options{BackgroundIO: true, IOWorkers: 4})
	defineBlobSchema(t, db)
	rd := func(u *Unit) error {
		time.Sleep(time.Millisecond)
		return blobReader(64, nil)(u)
	}
	for i := 0; i < 16; i++ {
		if err := db.AddUnit(fmt.Sprintf("u%d", i), rd); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- db.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung joining the worker pool")
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

// A stress run hammering one database from three consumers with every unit
// operation plus runtime memory-limit changes, under a tight limit, for both
// a single worker and a pool. It runs on the schedule explorer: each seed
// draws the compute charged between the consumers' steps, so the seeds
// replay different interleavings exactly. Individual operations may fail
// (deadlock detection, deleted units); the database must never stall, its
// invariants must hold after every step, and the counters must stay
// coherent.
func TestWorkerPoolStressRace(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("IOWorkers=%d", w), func(t *testing.T) {
			for seed := int64(1); seed <= churnSeeds; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					stressPool(t, w, seed)
				})
			}
		})
	}
}

func stressPool(t *testing.T, workers int, seed int64) {
	var (
		used int64
		s    Stats
		ws   []IOWorkerStats
	)
	onMachine(t, platform.Turing, func(m *platform.Machine, clock *seedClock) {
		db := clock.open(Options{BackgroundIO: true, IOWorkers: workers, MemoryLimit: 8192})
		defer db.Close()
		defineBlobSchema(t, db)
		rd := chargedBlobReader(m, 512, time.Millisecond)
		consumer := func(g int) func() {
			rng := rand.New(rand.NewSource(seed*3 + int64(g)))
			return func() {
				for i := 0; i < 40; i++ {
					name := fmt.Sprintf("u%02d", (g*11+i)%16)
					switch i % 6 {
					case 0, 4:
						ignoreRaceErr(db.AddUnit(name, rd))
					case 1:
						if db.ReadUnit(name, rd) == nil {
							ignoreRaceErr(db.FinishUnit(name))
						}
					case 2:
						if db.WaitUnit(name) == nil {
							ignoreRaceErr(db.FinishUnit(name))
						}
					case 3:
						ignoreRaceErr(db.DeleteUnit(name))
					case 5:
						db.SetMemSpace(4096 + int64((g+i)%5)*1024)
					}
					m.Compute(smallCharge(rng))
					audit(db, "step")
				}
				// Delete every name before exiting: a consumer must not
				// abandon units it left ready but unconsumed, or the last
				// one standing can block on memory for good, waiting for
				// consumers that no longer exist. Deleting a unit someone
				// is still reading registers a waiter, so a reader wedged
				// on memory fails with ErrDeadlock instead of pinning the
				// delete.
				for n := 0; n < 16; n++ {
					ignoreRaceErr(db.DeleteUnit(fmt.Sprintf("u%02d", n)))
				}
			}
		}
		runAll(clock, consumer(0), consumer(1), consumer(2))
		db.SetMemSpace(1 << 20)
		for _, u := range db.Units() {
			if err := db.DeleteUnit(u.Name); err != nil {
				t.Errorf("delete %s after churn: %v", u.Name, err)
			}
		}
		used, s, ws = db.MemUsed(), db.Stats(), db.IOWorkerStats()
	})
	if used != 0 {
		t.Fatalf("MemUsed = %d after deleting everything", used)
	}
	if s.UnitsPrefetched > s.UnitsRead {
		t.Fatalf("UnitsPrefetched = %d > UnitsRead = %d", s.UnitsPrefetched, s.UnitsRead)
	}
	var prefetched int64
	for _, w := range ws {
		prefetched += w.Prefetched
	}
	if prefetched != s.UnitsPrefetched {
		t.Fatalf("per-worker Prefetched sums to %d, Stats says %d", prefetched, s.UnitsPrefetched)
	}
}

// Regression: a read function that panicked on an inline read unwound into
// ReadUnit's deferred unlock of the db.mu runRead had dropped, and the
// process died with "sync: unlock of unlocked mutex"; on a background worker
// it ended the process too. Either way the panic now fails the unit like a
// returned error: the consumer gets ErrUnitFailed with the panic value, and
// what the read function made and donated is gone.
func TestReadFuncPanicFailsUnit(t *testing.T) {
	for _, bg := range []bool{false, true} {
		db := newTestDB(t, Options{BackgroundIO: bg})
		defineFluidSchema(t, db)
		var released atomic.Int64
		read := func(u *Unit) error {
			u.OnRelease(func() { released.Add(1) })
			rec, err := u.NewRecord("fluid")
			if err != nil {
				return err
			}
			if _, err := rec.AllocFieldBuffer("pressure", 800); err != nil {
				return err
			}
			panic("boom")
		}
		var err error
		if bg {
			if err = db.AddUnit("u1", read); err != nil {
				t.Fatal(err)
			}
			err = db.WaitUnit("u1")
		} else {
			err = db.ReadUnit("u1", read)
		}
		if !errors.Is(err, ErrUnitFailed) || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("background=%v: got %v, want ErrUnitFailed carrying the panic", bg, err)
		}
		if n := released.Load(); n != 1 {
			t.Errorf("background=%v: %d release hooks ran, want 1", bg, n)
		}
		if m := db.MemUsed(); m != 0 {
			t.Errorf("background=%v: %d bytes still charged after the failed read", bg, m)
		}
	}
}
