package shdf

import (
	"path/filepath"
	"sync"
	"testing"
)

// TestMappedCloseRace closes a mapped file while other goroutines poll
// Mapped() and call Close concurrently. Mapped must read f.mapping under
// f.mu, and Close must take the owned *os.File under f.mu before closing
// it outside the lock. The unlocked accesses to File.mapping and File.f
// this guards against were real races, and only -race sees them: run it
// under the race detector.
func TestMappedCloseRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.shdf")
	writeSample(t, path)
	f, err := OpenMapped(path)
	if err != nil {
		// mmap unavailable on this platform: the plain-file path still
		// exercises the Close/Mapped locking.
		f, err = Open(path)
		if err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			f.Mapped()
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Close()
		}()
	}
	wg.Wait()
	<-done
	if f.Mapped() {
		t.Fatal("file still reports mapped after Close")
	}
}
