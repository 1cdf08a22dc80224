package core

import "fmt"

// fieldType is a named field definition: name, element type, and declared
// buffer size in bytes (Unknown if the size is learned only at read time).
type fieldType struct {
	name  string
	dtype DataType
	size  int // bytes, or Unknown
}

// recordType is a committed or in-progress record schema: an ordered set of
// field types, of which the first numKeys-inserted key fields form the
// composite key identifying a record among all records of this type.
type recordType struct {
	name      string
	numKeys   int
	fields    []*fieldType // in insertion order
	fieldPos  map[string]int
	keys      []*fieldType // key fields in insertion order
	committed bool
}

// DefineField defines and names a new field type with the given element type
// and declared buffer size in bytes. Pass Unknown when the size is not known
// until the input files are read (the paper's UNKNOWN). A field type may be
// inserted into any number of record types.
func (db *DB) DefineField(name string, t DataType, size int) error {
	if !t.valid() {
		return fmt.Errorf("%w: field %q has invalid type", ErrTypeMismatch, name)
	}
	if size != Unknown && size < 0 {
		return fmt.Errorf("%w: field %q declared with size %d", ErrBadSize, name, size)
	}
	if size != Unknown && size%t.ElemSize() != 0 {
		return fmt.Errorf("%w: field %q: %d bytes is not a multiple of %v element size",
			ErrBadSize, name, size, t)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, dup := db.fieldTypes[name]; dup {
		return fmt.Errorf("%w: field type %q", ErrExists, name)
	}
	db.fieldTypes[name] = &fieldType{name: name, dtype: t, size: size}
	return nil
}

// DefineRecordType defines and names a new record type with an empty field
// set and the given number of key fields (the paper's defineRecord).
// Fields are added with InsertField and the schema is finalized with
// CommitRecordType.
func (db *DB) DefineRecordType(name string, numKeys int) error {
	if numKeys < 1 {
		return fmt.Errorf("%w: record type %q declared with %d key fields", ErrKeyCount, name, numKeys)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, dup := db.recordTypes[name]; dup {
		return fmt.Errorf("%w: record type %q", ErrExists, name)
	}
	db.recordTypes[name] = &recordType{
		name:     name,
		numKeys:  numKeys,
		fieldPos: make(map[string]int),
	}
	return nil
}

// InsertField adds a previously defined field type to a record type's field
// set. key marks the field as part of the record type's composite key; key
// fields must have a known (non-Unknown) size so that composite keys have a
// fixed layout.
func (db *DB) InsertField(recType, field string, key bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	rt, ok := db.recordTypes[recType]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRecordType, recType)
	}
	if rt.committed {
		return fmt.Errorf("%w: record type %q", ErrCommitted, recType)
	}
	ft, ok := db.fieldTypes[field]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownField, field)
	}
	if _, dup := rt.fieldPos[field]; dup {
		return fmt.Errorf("%w: field %q in record type %q", ErrExists, field, recType)
	}
	if key {
		if ft.size == Unknown {
			return fmt.Errorf("%w: key field %q must have a known size", ErrBadSize, field)
		}
		if len(rt.keys) == rt.numKeys {
			return fmt.Errorf("%w: record type %q already has %d key fields",
				ErrKeyCount, recType, rt.numKeys)
		}
		rt.keys = append(rt.keys, ft)
	}
	rt.fieldPos[field] = len(rt.fields)
	rt.fields = append(rt.fields, ft)
	return nil
}

// CommitRecordType concludes a record type definition. After commit the
// schema is immutable and records of the type may be created with NewRecord.
func (db *DB) CommitRecordType(recType string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	rt, ok := db.recordTypes[recType]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRecordType, recType)
	}
	if rt.committed {
		return fmt.Errorf("%w: record type %q", ErrCommitted, recType)
	}
	if len(rt.keys) != rt.numKeys {
		return fmt.Errorf("%w: record type %q declared %d key fields but %d were inserted",
			ErrKeyCount, recType, rt.numKeys, len(rt.keys))
	}
	rt.committed = true
	return nil
}

// RecordTypeFields returns the field names of a committed record type in
// insertion order. It exists so that generic tools (and tests) can walk a
// schema without private access.
func (db *DB) RecordTypeFields(recType string) ([]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rt, ok := db.recordTypes[recType]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRecordType, recType)
	}
	names := make([]string, len(rt.fields))
	for i, ft := range rt.fields {
		names[i] = ft.name
	}
	return names, nil
}

// keyFor builds the composite index key of a committed record from the
// current contents of its key-field buffers, in key insertion order. Caller
// holds db.mu.
func (rt *recordType) keyFor(r *Record) ([]byte, error) {
	key := make([]byte, 0, 32)
	for _, kf := range rt.keys {
		buf := r.buffers[rt.fieldPos[kf.name]]
		if buf == nil {
			return nil, fmt.Errorf("%w: key field %q of record type %q", ErrNoBuffer, kf.name, rt.name)
		}
		key = buf.encodeTo(key)
	}
	return key, nil
}

// appendKeyForValues builds a composite index key from query-supplied key
// values, which must match the key fields in number and type, appending to
// dst. The query path passes its scratch buffer (db.keyBuf) so a fixed-size
// key lookup performs no allocation.
//
//godiva:noalloc
func (rt *recordType) appendKeyForValues(dst []byte, values []any) ([]byte, error) {
	if len(values) != rt.numKeys {
		return dst, fmt.Errorf("%w: got %d key values for record type %q (want %d)",
			ErrKeyCount, len(values), rt.name, rt.numKeys)
	}
	key := dst
	var err error
	for i, kf := range rt.keys {
		key, err = encodeKeyValue(key, kf.dtype, kf.size, values[i])
		if err != nil {
			return dst, fmt.Errorf("key field %q: %w", kf.name, err)
		}
	}
	return key, nil
}
