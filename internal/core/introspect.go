package core

import (
	"fmt"
	"sort"
)

// UnitInfo describes one processing unit's current condition.
type UnitInfo struct {
	Name    string
	State   string // pending, reading, ready, finished, failed
	Records int
	Bytes   int64 // memory charged by the unit's records
	Refs    int   // active consumers
}

// Units lists all live units sorted by name, for monitoring and tests.
func (db *DB) Units() []UnitInfo {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]UnitInfo, 0, len(db.units))
	for _, u := range db.units {
		out = append(out, UnitInfo{
			Name:    u.name,
			State:   u.state.String(),
			Records: len(u.records),
			Bytes:   u.memory,
			Refs:    u.refs,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RecordTypes lists the committed record type names, sorted.
func (db *DB) RecordTypes() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []string
	for name, rt := range db.recordTypes {
		if rt.committed {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// KeyFields returns a committed record type's key field names in key order.
func (db *DB) KeyFields(recType string) ([]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rt, ok := db.recordTypes[recType]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRecordType, recType)
	}
	out := make([]string, len(rt.keys))
	for i, kf := range rt.keys {
		out[i] = kf.name
	}
	return out, nil
}

// ScanPrefix calls fn for every committed record whose leading key fields
// equal the given values, in ascending key order, until fn returns false.
// With all key values supplied it visits at most the one exact match; with
// fewer it performs a range scan — e.g. every block record of one block ID
// across all time steps when the block ID is the first key field. fn runs
// with the database lock held and must not call back into the database.
func (db *DB) ScanPrefix(recType string, fn func(r *Record) bool, keys ...any) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	rt, ok := db.recordTypes[recType]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRecordType, recType)
	}
	if !rt.committed {
		return fmt.Errorf("%w: record type %q", ErrNotCommitted, recType)
	}
	if len(keys) > rt.numKeys {
		return fmt.Errorf("%w: got %d key values for record type %q (want <= %d)",
			ErrKeyCount, len(keys), recType, rt.numKeys)
	}
	prefix := make([]byte, 0, 32)
	var err error
	for i, kf := range rt.keys[:len(keys)] {
		prefix, err = encodeKeyValue(prefix, kf.dtype, kf.size, keys[i])
		if err != nil {
			return fmt.Errorf("key field %q: %w", kf.name, err)
		}
	}
	idx, ok := db.indexes[recType]
	if !ok {
		return nil
	}
	if len(prefix) == 0 {
		idx.Ascend(func(_ []byte, r *Record) bool { return fn(r) })
		return nil
	}
	hi := prefixUpperBound(prefix)
	idx.AscendRange(prefix, hi, func(_ []byte, r *Record) bool { return fn(r) })
	return nil
}

// prefixUpperBound returns the smallest key greater than every key with the
// given prefix, or nil if the prefix is all 0xFF (scan to the end).
func prefixUpperBound(prefix []byte) []byte {
	hi := make([]byte, len(prefix))
	copy(hi, prefix)
	for i := len(hi) - 1; i >= 0; i-- {
		if hi[i] < 0xFF {
			hi[i]++
			return hi[:i+1]
		}
	}
	return nil
}
