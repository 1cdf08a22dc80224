package core

import "time"

// UnitEvent records one processing-unit state transition, timestamped by the
// database's clock (Options.Clock). The event log makes prefetch behavior
// observable: when a unit was queued, when the I/O thread picked it up, when
// it became ready, when it was finished, evicted or deleted — the timeline
// behind the paper's visible-I/O measurements.
type UnitEvent struct {
	Unit   string
	From   string
	To     string
	Worker int // I/O worker driving the transition, -1 on application threads
	When   time.Time
}

// maxEvents bounds the in-memory event log; older events are dropped.
const maxEvents = 65536

// recordEventLocked appends a transition to the event log when tracing is
// enabled. Every unit state transition funnels through here, which makes it
// the natural seam for the godivainvariants transition-table check — it runs
// even when tracing is off. Caller holds db.mu.
func (db *DB) recordEventLocked(u *unit, from, to unitState) {
	db.checkTransitionLocked(u, from, to)
	if !db.traceEvents {
		return
	}
	if len(db.events) >= maxEvents {
		// Trim the oldest quarter — and say so: a truncated timeline that
		// looks complete would mislead anyone debugging push delivery.
		drop := len(db.events) / 4
		db.events = append(db.events[:0], db.events[drop:]...)
		db.stats.eventsDropped.Add(int64(drop))
	}
	db.events = append(db.events, UnitEvent{
		Unit:   u.name,
		From:   from.String(),
		To:     to.String(),
		Worker: u.worker,
		When:   db.now(),
	})
}

// UnitEvents returns a copy of the recorded unit state transitions, oldest
// first. Empty unless Options.TraceUnits was set.
func (db *DB) UnitEvents() []UnitEvent {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]UnitEvent, len(db.events))
	copy(out, db.events)
	return out
}
