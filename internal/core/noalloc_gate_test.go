// AllocsPerRun gates for this package's //godiva:noalloc functions (see
// internal/noalloctest): each gate drives every branch of its function that
// does not return an error, so a new branch there needs a call here too.
// Excluded under -race: the race runtime instruments allocation sites and
// the measurements stop meaning anything.

//go:build !race

package core

import (
	"testing"

	"godiva/internal/noalloctest"
)

func TestNoAllocGates(t *testing.T) {
	db, keys := populateQueryDB(t, 64)
	rt := db.recordTypes["grid"]
	buf := make([]byte, 0, 64)
	// One value per key type, pre-boxed so the gate measures
	// encodeKeyValue, not the harness's conversions to interface. The
	// string is shorter than its field, so the zero padding runs too.
	var (
		strVal any = "ab"
		bytVal any = []byte{1, 2, 3, 4}
		i32Val any = int32(-7)
		i64Val any = int64(1) << 40
		f32Val any = float32(0.5)
		f64Val any = 0.25
	)
	var (
		r   *Record
		s   Stats
		err error
	)
	// A dropped buffer's memory for the free-list gate, which puts it on
	// the list and takes it back (the hit), then finds the list empty (the
	// miss). The list's capacity is allocated here, not in the gate.
	dropped := &Buffer{dtype: Float64, size: 64, f64: make([]float64, 8)}
	fk := freeKey{Float64, 64}
	db.mu.Lock()
	db.free = map[freeKey][]*Buffer{fk: make([]*Buffer, 0, 1)}
	db.mu.Unlock()
	var fresh Buffer
	encode := func(dt DataType, size int, v any) {
		if buf, err = encodeKeyValue(buf[:0], dt, size, v); err != nil {
			panic(err)
		}
	}
	noalloctest.Check(t, ".", map[string]func(){
		"recordType.appendKeyForValues": func() {
			buf, err = rt.appendKeyForValues(buf[:0], keys[0])
			if err != nil {
				panic(err)
			}
		},
		"encodeKeyValue": func() {
			encode(String, 4, strVal)
			encode(Bytes, 4, bytVal)
			encode(Int32, 4, i32Val)
			encode(Int64, 8, i64Val)
			encode(Float32, 4, f32Val)
			encode(Float64, 8, f64Val)
		},
		"DB.getRecordLocked": func() {
			db.mu.Lock()
			r, err = db.getRecordLocked("grid", keys[0])
			db.mu.Unlock()
			if err != nil {
				panic(err)
			}
		},
		"DB.Stats": func() {
			s = db.Stats()
		},
		"DB.takeFreeLocked": func() {
			db.mu.Lock()
			db.free[fk] = append(db.free[fk], dropped)
			db.freeBytes += 64
			dropped.f64[0] = 1
			fresh = Buffer{dtype: Float64, size: 64}
			hit := db.takeFreeLocked(&fresh)
			miss := db.takeFreeLocked(&Buffer{dtype: Float64, size: 64})
			db.mu.Unlock()
			if !hit || miss || fresh.f64[0] != 0 {
				panic("free-list gate: want one zeroed hit, then a miss")
			}
		},
	})
	if r == nil && !t.Failed() {
		t.Error("key lookup gate returned no record")
	}
	if s.RecordsCommitted == 0 && !t.Failed() {
		t.Error("Stats gate saw no commits")
	}
}
