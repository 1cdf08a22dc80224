// AllocsPerRun gates for this package's //godiva:noalloc functions — the
// runtime cross-check of the alloccheck analyzer (see internal/noalloctest).
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
	// Pre-boxed so the gate measures encodeKeyValue, not the harness's
	// string-to-interface conversion.
	var keyVal any = keys[0][0]
	var (
		r   *Record
		s   Stats
		err error
	)
	noalloctest.Check(t, ".", map[string]func(){
		"recordType.appendKeyForValues": func() {
			buf, err = rt.appendKeyForValues(buf[:0], keys[0])
			if err != nil {
				panic(err)
			}
		},
		"encodeKeyValue": func() {
			buf, err = encodeKeyValue(buf[:0], String, 16, keyVal)
			if err != nil {
				panic(err)
			}
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
	})
	if r == nil && !t.Failed() {
		t.Error("key lookup gate returned no record")
	}
	if s.RecordsCommitted == 0 && !t.Failed() {
		t.Error("Stats gate saw no commits")
	}
}
