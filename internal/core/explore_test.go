package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"godiva/internal/platform"
)

// The schedule explorer runs scripted consumers against a database on a
// platform.Machine. The machine runs one simulated goroutine at a time and
// its virtual time is a pure function of the charges, so a seed — which
// draws the units, the memory cap, the consumers' scripts and the random
// charges between their steps and inside the read functions — is one
// reproducible interleaving of the consumers and the I/O workers.
//
// What it cannot reach is a window between two critical sections with no
// park in between, such as a lost wakeup from a progress counter dropped
// after the memory waiters were woken: no other simulated goroutine runs
// there. Those windows stay with the -race tests on real goroutines
// (TestConcurrentConsumers, TestConcurrentLifecycleStress,
// TestStatsSnapshotConcurrentWithChurn and
// TestDeadlockDetectionUnchangedByWakeupMachinery).

// exploreSeeds is the number of seeds TestExploreSchedules runs per I/O
// worker count.
const exploreSeeds = 400

// churnSeeds is the number of seeds each churn test runs per configuration.
const churnSeeds = 40

// TestExploreSchedules runs exploreSeeds seeds at each I/O pool size from
// the single-thread library to three workers. Each seed has one to four
// units of one to three records, a memory cap of one to four units, and one
// or two consumers, and checks:
//
//	(1) the machine never stalls (it panics, naming the seed);
//	(2) under godivainvariants, the invariants hold after every step;
//	(3) at IOWorkers <= 1, with one consumer waiting in AddUnit order,
//	    WaitUnit(u) returns ErrDeadlock exactly when the bytes the consumer
//	    has pinned plus u's charge exceed the limit;
//	(4) at IOWorkers >= 2, every wait (3) calls hopeless fails; deadlocks on
//	    waits it says fit are the pool's run-ahead fill, counted not failed;
//	(5) with IOWorkers >= 1, a wait that fits — at IOWorkers >= 2 together
//	    with every later unit, before any deadlock — returns with no visible
//	    wait after a second of virtual compute;
//	(6) WaitUnit never returns ErrUnknownUnit for a unit added and not
//	    since acquired or deleted, a cached unit evicted after its re-add
//	    included;
//	(7) after Close, MemUsed is 0.
func TestExploreSchedules(t *testing.T) {
	for workers := 0; workers <= 3; workers++ {
		t.Run(fmt.Sprintf("IOWorkers=%d", workers), func(t *testing.T) {
			var tally exploreTally
			for seed := int64(1); seed <= exploreSeeds; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					extra := tally.extra
					newExploreCase(t, workers, seed).run(t, &tally)
					if tally.extra > extra {
						tally.extraSeeds++
					}
				})
			}
			t.Logf("%d waits, %d checked against (3)-(4), %d run-ahead deadlocks over %d seeds",
				tally.waits, tally.modelled, tally.extra, tally.extraSeeds)
		})
	}
}

// exploreTally counts one pool size's waits across its seeds.
type exploreTally struct {
	waits      int // WaitUnit calls
	modelled   int // waits checked against (3) and (4)
	extra      int // deadlocks on waits (3) says fit, at IOWorkers >= 2
	extraSeeds int // seeds with at least one of them
}

// seedClock is a Machine whose simulated goroutines name the running test
// in any panic — a stall, an invariant violation — so a failure on an I/O
// worker, which ends the test binary, still says which seed to re-run.
type seedClock struct {
	*platform.Machine
	test string
}

func (c seedClock) Go(fn func()) {
	c.Machine.Go(func() {
		defer c.blame()
		fn()
	})
}

func (c seedClock) blame() {
	if r := recover(); r != nil {
		panic(fmt.Sprintf("%s: %v", c.test, r))
	}
}

// onMachine runs fn as the first simulated goroutine of a fresh machine,
// with a clock to open the database on.
func onMachine(t *testing.T, spec platform.Spec, fn func(m *platform.Machine, clock Clock)) {
	clock := seedClock{platform.New(spec), t.Name()}
	clock.Run(func() {
		defer clock.blame()
		fn(clock.Machine, clock)
	})
}

// runAll runs each fn as a simulated goroutine and returns once all have.
func runAll(clock Clock, fns ...func()) {
	done := make([]chan struct{}, len(fns))
	for i, fn := range fns {
		done[i] = make(chan struct{})
		clock.Go(func() {
			defer close(done[i])
			fn()
		})
	}
	for _, ch := range done {
		clock.Wait(ch)
	}
}

// audit runs the full invariant check, a no-op without godivainvariants.
func audit(db *DB) {
	db.mu.Lock()
	db.checkInvariantsLocked("explore")
	db.mu.Unlock()
}

// smallCharge draws a step's compute charge: 0–3 ms, so ties are common.
func smallCharge(rng *rand.Rand) time.Duration {
	return time.Duration(rng.Intn(4)) * time.Millisecond
}

// exploreUnit is one processing unit of a seed: its records' payload
// sizes, the compute its read function charges, and the bytes it holds once
// read (measured alone).
type exploreUnit struct {
	name    string
	sizes   []int
	charges []time.Duration // two per record: before NewRecord, before CommitRecord
	charge  int64
}

// read returns the unit's read function, charging its compute on m (none
// when m is nil).
func (eu *exploreUnit) read(m *platform.Machine) ReadFunc {
	return func(u *Unit) error {
		for i, size := range eu.sizes {
			if m != nil {
				m.Compute(eu.charges[2*i])
			}
			r, err := u.NewRecord("blob")
			if err != nil {
				return err
			}
			if err := r.SetString("name", fmt.Sprintf("%s.%d", eu.name, i)); err != nil {
				return err
			}
			if _, err := r.AllocFieldBuffer("payload", size); err != nil {
				return err
			}
			if m != nil {
				m.Compute(eu.charges[2*i+1])
			}
			if err := u.DB().CommitRecord(r); err != nil {
				return err
			}
		}
		return nil
	}
}

// exploreCase is one seed's setup.
type exploreCase struct {
	spec      platform.Spec
	workers   int
	limit     int64
	consumers [][]*exploreUnit // each consumer's own units, in AddUnit order
	rngs      []*rand.Rand     // each consumer's script draws
}

func newExploreCase(t *testing.T, workers int, seed int64) *exploreCase {
	rng := rand.New(rand.NewSource(seed))
	units := make([]*exploreUnit, 1+rng.Intn(4))
	var maxCharge int64
	for i := range units {
		eu := &exploreUnit{name: fmt.Sprintf("u%d", i)}
		for range 1 + rng.Intn(3) {
			eu.sizes = append(eu.sizes, 64+rng.Intn(2048))
			eu.charges = append(eu.charges, smallCharge(rng), smallCharge(rng))
		}
		// The unit's charge, measured by reading it alone into an empty
		// database.
		db := Open(Options{})
		defineBlobSchema(t, db)
		if err := db.ReadUnit(eu.name, eu.read(nil)); err != nil {
			t.Fatal(err)
		}
		eu.charge = db.MemUsed()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		maxCharge = max(maxCharge, eu.charge)
		units[i] = eu
	}
	c := &exploreCase{
		spec:      platform.Engle,
		workers:   workers,
		limit:     maxCharge + rng.Int63n(int64(1+rng.Intn(3))*maxCharge+1), // tight caps more often
		consumers: [][]*exploreUnit{units},
	}
	if rng.Intn(2) == 0 {
		c.spec = platform.Turing
	}
	if len(units) > 1 && rng.Intn(2) == 0 {
		split := 1 + rng.Intn(len(units)-1)
		c.consumers = [][]*exploreUnit{units[:split], units[split:]}
	}
	for range c.consumers {
		c.rngs = append(c.rngs, rand.New(rand.NewSource(rng.Int63())))
	}
	return c
}

func (c *exploreCase) run(t *testing.T, tally *exploreTally) {
	used := int64(-1)
	onMachine(t, c.spec, func(m *platform.Machine, clock Clock) {
		db := Open(Options{MemoryLimit: c.limit, BackgroundIO: c.workers > 0, IOWorkers: c.workers, Clock: clock})
		defineBlobSchema(t, db)
		var scripts []func()
		for i, units := range c.consumers {
			ec := &exploreConsumer{
				t: t, db: db, m: m, rng: c.rngs[i], units: units, limit: c.limit, workers: c.workers,
				model: len(c.consumers) == 1, tally: tally,
				owed: map[string]bool{}, pinned: map[string]int64{},
			}
			scripts = append(scripts, func() { _ = ec.ordered() && ec.revisit() })
		}
		runAll(clock, scripts...)
		if err := db.Close(); err != nil {
			t.Error(err)
		}
		used = db.MemUsed()
	})
	if used != 0 {
		t.Errorf("(7) MemUsed = %d after Close", used)
	}
}

// exploreConsumer is one scripted application thread of a seed. Its
// methods report a failed check with t.Errorf and return false, ending the
// script; the database is closed either way.
type exploreConsumer struct {
	t       *testing.T
	db      *DB
	m       *platform.Machine
	rng     *rand.Rand
	units   []*exploreUnit
	limit   int64
	workers int
	model   bool // the only consumer: its first pass is checked against (3)–(5)
	tally   *exploreTally

	owed   map[string]bool  // added, and not since acquired or deleted
	pinned map[string]int64 // acquired and not released, by charge
}

// ok reports an operation's unexpected error or ends the step: a random
// charge, then the invariant audit (2).
func (c *exploreConsumer) ok(op string, eu *exploreUnit, err error) bool {
	if err != nil {
		c.t.Errorf("%s(%s): %v", op, eu.name, err)
		return false
	}
	c.m.Compute(smallCharge(c.rng))
	audit(c.db)
	return true
}

func (c *exploreConsumer) add(eu *exploreUnit) bool {
	c.owed[eu.name] = true
	return c.ok("AddUnit", eu, c.db.AddUnit(eu.name, eu.read(c.m)))
}

// wait calls WaitUnit, returning the visible wait, and checks what every
// wait must satisfy: no ErrUnknownUnit for an owed unit (6), and no error
// but a §3.3 deadlock, after which the consumer deletes the failed unit.
func (c *exploreConsumer) wait(eu *exploreUnit) (waited time.Duration, deadlocked, ok bool) {
	c.tally.waits++
	t0 := c.m.Now()
	err := c.db.WaitUnit(eu.name)
	waited = c.m.Now().Sub(t0)
	switch {
	case err == nil:
		delete(c.owed, eu.name)
		c.pinned[eu.name] = eu.charge
		return waited, false, c.ok("WaitUnit", eu, nil)
	case errors.Is(err, ErrDeadlock):
		delete(c.owed, eu.name)
		return waited, true, c.ok("DeleteUnit", eu, c.db.DeleteUnit(eu.name))
	case errors.Is(err, ErrUnknownUnit):
		c.t.Errorf("(6) WaitUnit(%s) after AddUnit: %v", eu.name, err)
	default:
		c.t.Errorf("WaitUnit(%s): %v", eu.name, err)
	}
	return waited, false, false
}

// release ends the consumer's use of a unit it holds: it finishes it (half
// the time), deletes it, or keeps it pinned.
func (c *exploreConsumer) release(eu *exploreUnit) bool {
	switch c.rng.Intn(4) {
	case 0, 1:
		delete(c.pinned, eu.name)
		return c.ok("FinishUnit", eu, c.db.FinishUnit(eu.name))
	case 2:
		delete(c.pinned, eu.name)
		delete(c.owed, eu.name)
		return c.ok("DeleteUnit", eu, c.db.DeleteUnit(eu.name))
	}
	return true
}

// ordered is the first pass: the consumer adds its units in order, some
// ahead of their turn, waits for each in AddUnit order — after a second of
// compute or a short step — and releases it.
func (c *exploreConsumer) ordered() bool {
	added := 0
	for k, eu := range c.units {
		for added <= k || (added < len(c.units) && c.rng.Intn(2) == 0) {
			if !c.add(c.units[added]) {
				return false
			}
			added++
		}
		long := c.workers > 0 && c.rng.Intn(2) == 0
		if long {
			c.m.Compute(time.Second)
		}
		var pinned int64
		for _, n := range c.pinned {
			pinned += n
		}
		fits := pinned+eu.charge <= c.limit
		ahead := pinned
		for _, later := range c.units[k:] {
			ahead += later.charge
		}
		quiet := c.workers == 1 || ahead <= c.limit && c.db.Stats().Deadlocks == 0
		waited, deadlocked, ok := c.wait(eu)
		if !ok {
			return false
		}
		if c.model {
			c.tally.modelled++
			switch {
			case c.workers <= 1 && deadlocked == fits:
				c.t.Errorf("(3) WaitUnit(%s): deadlocked %v, but %d pinned + %d charge vs limit %d",
					eu.name, deadlocked, pinned, eu.charge, c.limit)
				return false
			case !fits && !deadlocked:
				c.t.Errorf("(4) WaitUnit(%s) succeeded, but %d pinned + %d charge > limit %d",
					eu.name, pinned, eu.charge, c.limit)
				return false
			case fits && deadlocked:
				c.tally.extra++
			}
			if long && fits && quiet && (deadlocked || waited != 0) {
				c.t.Errorf("(5) WaitUnit(%s) after 1s of compute: deadlocked %v, visible wait %v",
					eu.name, deadlocked, waited)
				return false
			}
		}
		if !deadlocked && !c.release(eu) {
			return false
		}
	}
	return true
}

// revisit is the second pass: with its pins released, the consumer re-adds
// some of its units in random order — a cached unit keeps the hint, a
// deleted one is read again — and only then waits for each, so that reading
// the later ones can evict the earlier ones before their wait.
func (c *exploreConsumer) revisit() bool {
	for _, eu := range c.units {
		if _, held := c.pinned[eu.name]; held {
			delete(c.pinned, eu.name)
			if !c.ok("FinishUnit", eu, c.db.FinishUnit(eu.name)) {
				return false
			}
		}
	}
	order := c.rng.Perm(len(c.units))[:1+c.rng.Intn(len(c.units))]
	for _, i := range order {
		if !c.add(c.units[i]) {
			return false
		}
	}
	for _, i := range order {
		eu := c.units[i]
		_, deadlocked, ok := c.wait(eu)
		if !ok || !deadlocked && !c.release(eu) {
			return false
		}
	}
	return true
}

// chargedBlobReader is blobReader with the read's compute charged on m.
func chargedBlobReader(m *platform.Machine, size int, charge time.Duration) ReadFunc {
	read := blobReader(size, nil)
	return func(u *Unit) error {
		m.Compute(charge)
		return read(u)
	}
}
