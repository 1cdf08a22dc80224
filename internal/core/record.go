package core

import "fmt"

// Memory-accounting overheads for the record indexing system, the "small
// overhead" of paper §3.2. These are charged against the database memory
// limit alongside the buffer payloads themselves.
const (
	recordOverhead = 96
	fieldOverhead  = 48
)

// Record is one dataset instance: a set of developer-defined fields, each a
// size plus a data buffer (paper §3.1, Figure 2). Records are created from a
// committed record type, filled by allocating field buffers and writing into
// them, then committed into the database index once the key-field buffers
// hold their final values.
//
// Records are not internally synchronized: a record belongs either to the
// read function filling it or, after commit, to whichever threads the
// application coordinates itself. This mirrors the paper's stance of
// foregoing database-style concurrency control.
type Record struct {
	db      *DB
	rt      *recordType
	unit    *unit // owning processing unit; nil for resident records
	buffers []*Buffer
	key     []byte
	memory  int64 // bytes charged against the database limit
	commit  bool
}

// newRecordLocked creates a record of the given committed type, allocating
// buffers for every field with a known declared size. Caller holds db.mu;
// the call may drop and reacquire the lock while waiting for memory.
func (db *DB) newRecordLocked(recType string, owner *unit) (*Record, error) {
	if db.closed {
		return nil, ErrClosed
	}
	rt, ok := db.recordTypes[recType]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRecordType, recType)
	}
	if !rt.committed {
		return nil, fmt.Errorf("%w: record type %q", ErrNotCommitted, recType)
	}
	r := &Record{db: db, rt: rt, unit: owner, buffers: make([]*Buffer, len(rt.fields))}
	need := int64(recordOverhead) + int64(len(rt.fields))*fieldOverhead
	for _, ft := range rt.fields {
		if ft.size != Unknown {
			need += int64(ft.size)
		}
	}
	if err := db.reserveLocked(need, owner); err != nil {
		return nil, err
	}
	r.memory = need
	for i, ft := range rt.fields {
		if ft.size == Unknown {
			continue
		}
		buf, err := newBuffer(ft.dtype, ft.size)
		if err != nil {
			db.releaseLocked(r.memory)
			return nil, fmt.Errorf("field %q: %w", ft.name, err)
		}
		r.buffers[i] = buf
	}
	if owner != nil {
		owner.records = append(owner.records, r)
		owner.memory += need
	} else {
		db.resident[r] = struct{}{}
	}
	return r, nil
}

// NewRecord creates a new record of a committed record type that is owned by
// the database itself rather than by any processing unit ("resident").
// Resident records are never evicted by the cache; they are freed only by
// DeleteRecord or Close. Read functions should instead create records
// through their Unit handle so the records are evicted with the unit.
func (db *DB) NewRecord(recType string) (*Record, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("NewRecord")
	return db.newRecordLocked(recType, nil)
}

// Type returns the record's record type name.
func (r *Record) Type() string { return r.rt.name }

// AllocFieldBuffer allocates the data buffer of a field whose size was
// declared Unknown (or replaces an existing buffer), with the given size in
// bytes. This is how array buffers are sized once the meta data describing
// them has been read (paper §3.1).
func (r *Record) AllocFieldBuffer(field string, size int) (*Buffer, error) {
	db := r.db
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("AllocFieldBuffer")
	if db.closed {
		return nil, ErrClosed
	}
	pos, ok := r.rt.fieldPos[field]
	if !ok {
		return nil, fmt.Errorf("%w: %q in record type %q", ErrUnknownField, field, r.rt.name)
	}
	if r.commit && r.isKeyField(pos) {
		return nil, fmt.Errorf("%w: cannot reallocate key field %q of a committed record",
			ErrCommitted, field)
	}
	buf, err := newBuffer(r.rt.fields[pos].dtype, size)
	if err != nil {
		return nil, fmt.Errorf("field %q: %w", field, err)
	}
	old := int64(0)
	if r.buffers[pos] != nil {
		old = int64(r.buffers[pos].size)
	}
	need := int64(size) - old
	if need > 0 {
		if err := db.reserveLocked(need, r.unit); err != nil {
			return nil, err
		}
	} else {
		db.releaseLocked(-need)
	}
	r.buffers[pos] = buf
	r.memory += need
	if r.unit != nil {
		r.unit.memory += need
	}
	return buf, nil
}

// BorrowFieldBuffer installs donated bytes as the named field's buffer
// without copying when the platform allows (little-endian host, naturally
// aligned data), falling back to an allocate-and-copy decode otherwise.
// This is the zero-copy intake of the read path: a read function that
// already holds the field's bytes — an mmap'd SHDF payload, a decoded wire
// segment — donates the slice instead of writing it element by element into
// newBuffer storage.
//
// Only unit-owned records may borrow: the donation's lifetime is the unit's
// lifetime, ending when the unit is deleted or evicted (register donor
// cleanup with Unit.OnRelease). Borrowed buffers are read-only; mutating
// accessors return ErrBorrowed. The donated bytes are charged against the
// database memory limit exactly like an allocated buffer of the same size.
func (r *Record) BorrowFieldBuffer(field string, data []byte) (*Buffer, error) {
	db := r.db
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("BorrowFieldBuffer")
	if db.closed {
		return nil, ErrClosed
	}
	if r.unit == nil {
		return nil, fmt.Errorf("%w: resident records cannot borrow field memory", ErrBorrowed)
	}
	pos, ok := r.rt.fieldPos[field]
	if !ok {
		return nil, fmt.Errorf("%w: %q in record type %q", ErrUnknownField, field, r.rt.name)
	}
	if r.commit && r.isKeyField(pos) {
		return nil, fmt.Errorf("%w: cannot reallocate key field %q of a committed record",
			ErrCommitted, field)
	}
	buf, aliased, err := newBorrowedBuffer(r.rt.fields[pos].dtype, data)
	if err != nil {
		return nil, fmt.Errorf("field %q: %w", field, err)
	}
	old := int64(0)
	if r.buffers[pos] != nil {
		old = int64(r.buffers[pos].size)
	}
	need := int64(buf.size) - old
	if need > 0 {
		if err := db.reserveLocked(need, r.unit); err != nil {
			return nil, err
		}
	} else {
		db.releaseLocked(-need)
	}
	r.buffers[pos] = buf
	r.memory += need
	r.unit.memory += need
	if aliased {
		db.stats.BytesBorrowed += int64(buf.size)
	}
	return buf, nil
}

func (r *Record) isKeyField(pos int) bool {
	name := r.rt.fields[pos].name
	for _, kf := range r.rt.keys {
		if kf.name == name {
			return true
		}
	}
	return false
}

// FieldBuffer returns the data buffer of the named field, or ErrNoBuffer if
// it has not been allocated yet.
func (r *Record) FieldBuffer(field string) (*Buffer, error) {
	pos, ok := r.rt.fieldPos[field]
	if !ok {
		return nil, fmt.Errorf("%w: %q in record type %q", ErrUnknownField, field, r.rt.name)
	}
	buf := r.buffers[pos]
	if buf == nil {
		return nil, fmt.Errorf("%w: field %q", ErrNoBuffer, field)
	}
	return buf, nil
}

// SetString is shorthand for FieldBuffer(field).SetString(s).
func (r *Record) SetString(field, s string) error {
	buf, err := r.FieldBuffer(field)
	if err != nil {
		return err
	}
	return buf.SetString(s)
}

// CommitRecord inserts the record into the database's index system using the
// current contents of its key-field buffers (paper §3.1). All key-field
// buffers must be allocated and filled. Committing two records of the same
// type with equal key values replaces the earlier one in the index (and
// deletes it, mirroring the paper's assumption that key values uniquely
// identify a record).
func (db *DB) CommitRecord(r *Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("CommitRecord")
	if db.closed {
		return ErrClosed
	}
	if r.commit {
		return fmt.Errorf("%w: record of type %q", ErrCommitted, r.rt.name)
	}
	key, err := r.rt.keyFor(r)
	if err != nil {
		return err
	}
	idx := db.indexForLocked(r.rt.name)
	if prev, ok := idx.Get(key); ok {
		db.dropRecordLocked(prev)
	}
	idx.Set(key, r)
	r.key = key
	r.commit = true
	db.stats.RecordsCommitted++
	return nil
}

// DeleteRecord removes a record from the index (if committed) and releases
// its memory. Unit-owned records are normally deleted wholesale via
// DeleteUnit or cache eviction; DeleteRecord exists for resident records and
// for explicit early frees.
func (db *DB) DeleteRecord(r *Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("DeleteRecord")
	if db.closed {
		return ErrClosed
	}
	mem := r.memory
	db.dropRecordLocked(r)
	if r.unit == nil {
		delete(db.resident, r)
	} else {
		for i, ur := range r.unit.records {
			if ur == r {
				r.unit.records = append(r.unit.records[:i], r.unit.records[i+1:]...)
				break
			}
		}
		r.unit.memory -= mem
	}
	return nil
}

// dropRecordLocked removes a record from its type index and releases its
// memory charge. Caller holds db.mu.
func (db *DB) dropRecordLocked(r *Record) {
	if r.commit {
		if idx, ok := db.indexes[r.rt.name]; ok {
			idx.Delete(r.key)
		}
		r.commit = false
	}
	db.releaseLocked(r.memory)
	r.memory = 0
	r.buffers = nil
}
