package core

import (
	"slices"
	"time"
)

// Stats is a snapshot of the database's operation counters. Times are read
// from the database's clock (Options.Clock): wall times by default, virtual
// times on a simulated machine. VisibleWait is the cumulative time callers
// spent blocked in WaitUnit/ReadUnit — the quantity the paper's evaluation
// reports as "visible I/O time" — while ReadTime is the cumulative time
// spent inside read functions regardless of whether a caller was waiting.
type Stats struct {
	RecordsCommitted int64
	UnitsAdded       int64 // units queued via AddUnit or first ReadUnit
	UnitsRead        int64 // read functions completed successfully
	UnitsPrefetched  int64 // subset of UnitsRead performed by the I/O workers
	UnitsFailed      int64
	UnitsDeleted     int64
	UnitsEvicted     int64
	CacheHits        int64
	Deadlocks        int64
	BytesLoaded      int64 // cumulative unit payload bytes brought in
	BytesBorrowed    int64 // subset of BytesLoaded adopted zero-copy (donated slices)
	PeakBytes        int64 // high-water memory charge
	EventsDropped    int64 // trace-log events discarded by the maxEvents cap
	VisibleWait      time.Duration
	ReadTime         time.Duration
}

// Stats returns a snapshot of the database counters. They are kept under
// db.mu and bumped in the critical section that makes the counted event
// visible, so every snapshot is consistent: UnitsPrefetched <= UnitsRead <=
// UnitsAdded, and the workers' Prefetched sum to UnitsPrefetched.
//
//godiva:noalloc
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

// IOWorkerStats describes one worker of the background I/O pool
// (Options.IOWorkers). Counters are cumulative since Open.
type IOWorkerStats struct {
	Worker      int           // worker index, 0..IOWorkers-1
	Prefetched  int64         // successful background reads completed
	Failed      int64         // background reads that ended in stateFailed
	Reading     bool          // a read is in flight on this worker right now
	Unit        string        // unit being read while Reading, "" otherwise
	BlockedTime time.Duration // cumulative clock time blocked on memory in a read (see Stats)
}

// IOWorkerStats returns a snapshot of the per-worker counters, one entry per
// background I/O worker in worker order; empty in single-thread mode.
func (db *DB) IOWorkerStats() []IOWorkerStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return slices.Clone(db.workers)
}

// RegisterStatsSource attaches a named provider of external operation
// counters — e.g. the remote unit client's transport stats — so tools that
// report DB.Stats can surface them alongside it without the core depending
// on any transport. Registering a name again replaces its provider. fn must
// be safe to call from any goroutine and must not call back into the
// database.
func (db *DB) RegisterStatsSource(name string, fn func() any) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.statsSources == nil {
		db.statsSources = make(map[string]func() any)
	}
	db.statsSources[name] = fn
}

// ExternalStats snapshots every registered external stats source by name.
// The providers run outside the database lock.
func (db *DB) ExternalStats() map[string]any {
	db.mu.Lock()
	fns := make(map[string]func() any, len(db.statsSources))
	for name, fn := range db.statsSources {
		fns[name] = fn
	}
	db.mu.Unlock()
	out := make(map[string]any, len(fns))
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}
