package core

// The free list keeps the memory of dropped buffers for the next buffer of
// the same type and size, so a unit read in place of a dropped one commits
// into the memory the dropped one held instead of into fresh allocations.
// GODIVA manages buffer locations, never buffer contents (paper §3.2): the
// list hands out only memory that the database allocated itself and that
// no live record holds. See DESIGN.md, "Buffer memory reuse".
//
// Its bytes are not charged (MemUsed, Stats.PeakBytes) but count against
// the limit: db.mem + db.freeBytes <= db.limit whenever db.mu is free.
// reserveLocked and SetMemSpace trim the list before they evict anything,
// and Close drops it.

import "unsafe"

// freeKey is what a dropped buffer's memory can back: a buffer of the same
// element type and byte size.
type freeKey struct {
	dtype DataType
	size  int
}

// keepFreeLocked puts the memory of each buffer in bufs that the database
// allocated on the free list, as far as the limit leaves room beside the
// charge. bufs were a dropped unit's, whose read function has returned, so
// nothing but stale handles the contract forbids reading still refers to
// that memory. Borrowed buffers stay off the list: their bytes are the
// donor's. A closed database keeps nothing. Caller holds db.mu.
func (db *DB) keepFreeLocked(bufs []*Buffer) {
	if db.closed {
		return
	}
	for _, b := range bufs {
		if b == nil || b.borrowed || b.size == 0 || db.mem+db.freeBytes+int64(b.size) > db.limit {
			continue
		}
		k := freeKey{b.dtype, b.size}
		db.free[k] = append(db.free[k], b)
		db.freeBytes += int64(b.size)
	}
}

// takeFreeLocked backs b, a fresh buffer with its type and size set, with
// the zeroed memory of a dropped buffer of the same type and size, and
// reports whether the free list had one. Caller holds db.mu.
//
//godiva:noalloc
func (db *DB) takeFreeLocked(b *Buffer) bool {
	k := freeKey{b.dtype, b.size}
	list := db.free[k]
	if len(list) == 0 {
		return false
	}
	old := list[len(list)-1]
	list[len(list)-1] = nil
	db.free[k] = list[:len(list)-1]
	db.freeBytes -= int64(b.size)
	b.data = old.data
	clear(unsafe.Slice((*byte)(b.data), b.size))
	return true
}

// trimFreeLocked lets at least excess bytes of the free list go to the
// garbage collector, or all of it when it holds less. Caller holds db.mu.
func (db *DB) trimFreeLocked(excess int64) {
	for k, list := range db.free {
		if excess <= 0 {
			return
		}
		for len(list) > 0 && excess > 0 {
			list[len(list)-1] = nil
			list = list[:len(list)-1]
			db.freeBytes -= int64(k.size)
			excess -= int64(k.size)
		}
		if len(list) == 0 {
			delete(db.free, k)
		} else {
			db.free[k] = list
		}
	}
}
