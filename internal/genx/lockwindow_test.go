//go:build race

package genx

import (
	"testing"

	"godiva/internal/locktest"
)

// touchLocked writes every field the table's mutex guards, its entries'
// included, with the value each already holds. Caller holds t.mu. Under
// -race it makes locktest.Probe see an access a method makes outside the
// lock, however briefly.
func (t *fileTable) touchLocked() {
	for path, sf := range t.byPath {
		t.byPath[path] = sf
	}
	for sf := t.head; sf != nil; sf = sf.next {
		sf.refs = locktest.Keep(sf.refs)
		sf.tabled = locktest.Keep(sf.tabled)
		sf.prev = locktest.Keep(sf.prev)
		sf.next = locktest.Keep(sf.next)
	}
	for _, sf := range t.byPath {
		sf.refs = locktest.Keep(sf.refs)
		sf.tabled = locktest.Keep(sf.tabled)
	}
	t.byPath = locktest.Keep(t.byPath)
	t.head = locktest.Keep(t.head)
	t.tail = locktest.Keep(t.tail)
	t.idleBytes = locktest.Keep(t.idleBytes)
	t.budget = locktest.Keep(t.budget)
	t.closed = locktest.Keep(t.closed)
	t.stats = locktest.Keep(t.stats)
}

// TestLockWindows runs a Mapped reader's table through its first miss,
// misses, hits, an idle list over its budget, a file replaced under an open
// handle, Stats and Close, from two goroutines, under locktest.Probe on the
// table's mutex.
func TestLockWindows(t *testing.T) {
	_, paths := tinyFiles(t)
	r := &Reader{Mapped: true}
	tab := &r.files
	tab.mu.Lock()
	tab.budget = fileSize(t, paths[0]) // one idle file
	tab.mu.Unlock()
	locktest.Probe(func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 4; i++ {
				h, err := r.Open(paths[i%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				if err := h.Close(); err != nil {
					t.Error(err)
				}
			}
		}()
		for round := 0; round < 2; round++ {
			for _, p := range paths {
				h := openOK(t, r, p)
				readAll(t, h)
				closeOK(t, h)
				r.Stats()
			}
		}
		h := openOK(t, r, paths[0])
		replaceFile(t, paths[1], paths[0])
		closeOK(t, openOK(t, r, paths[0]))
		closeOK(t, h)
		<-done
		if err := r.Close(); err != nil {
			t.Error(err)
		}
		closeOK(t, openOK(t, r, paths[1]))
	}, locktest.Guard{Mu: &tab.mu, Touch: tab.touchLocked})

	// A table is made on its reader's first miss: open that window on ten
	// fresh readers.
	for i := 0; i < 10; i++ {
		fresh := &Reader{Mapped: true}
		locktest.Probe(func() {
			closeOK(t, openOK(t, fresh, paths[i%len(paths)]))
		}, locktest.Guard{Mu: &fresh.files.mu, Touch: fresh.files.touchLocked})
	}
}
