//go:build unix

package genx

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// An open that is slow to return — here of a FIFO no writer has opened yet —
// holds no table lock: the table opens and maps a file before it takes its
// mutex (DESIGN.md's lock order), so Stats, and every other file's open and
// close, go on while one disk open waits.
func TestSlowOpenLeavesTableFree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "genx_t0000_0.shdf")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	r := &Reader{Mapped: true}
	opened := make(chan error, 1)
	go func() {
		h, err := r.Open(path)
		if err == nil {
			err = h.Close()
		}
		opened <- err
	}()
	time.Sleep(100 * time.Millisecond) // the open now waits for a writer

	stats := make(chan struct{})
	go func() {
		r.Stats()
		close(stats)
	}()
	select {
	case <-stats:
	case <-time.After(2 * time.Second):
		t.Error("Stats waited for an open in progress: the open holds the table's mutex")
	}

	// A writer releases the open, which then fails: a FIFO is no SHDF file.
	w, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-opened; err == nil {
		t.Error("opening a FIFO as a snapshot file succeeded")
	}
}
