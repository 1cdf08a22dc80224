package genx

import (
	"testing"

	"godiva/internal/locktest"
)

// TestStatsReleasesTableLock calls Reader.Stats, which takes the table's
// mutex and gives it back with a deferred Unlock, twice, then takes the
// mutex again through an open and a close. A Stats that returns holding the
// mutex hangs the second call, and locktest.Released fails the test within
// seconds.
func TestStatsReleasesTableLock(t *testing.T) {
	_, paths := tinyFiles(t)
	r := &Reader{Mapped: true}
	stats := func() { r.Stats() }
	locktest.Released(t, stats, stats, func() {
		h, err := r.Open(paths[0])
		if err != nil {
			t.Error(err)
			return
		}
		if err := h.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := r.Close(); err != nil {
		t.Error(err)
	}
}
