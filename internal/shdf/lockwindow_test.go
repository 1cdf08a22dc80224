//go:build race

package shdf

import (
	"path/filepath"
	"testing"

	"godiva/internal/locktest"
)

// touchLocked writes every field f.mu guards — the check count, the
// mapping Close unmaps and each entry's memoized payload, verification and
// dataset — with the value each already holds. Caller holds f.mu. Under
// -race it makes locktest.Probe see an access a method makes outside the
// lock, however briefly.
func (f *File) touchLocked() {
	for i := range f.entries {
		e := &f.entries[i]
		e.payload = locktest.Keep(e.payload)
		e.verified = locktest.Keep(e.verified)
		e.ds = locktest.Keep(e.ds)
	}
	f.mapping = locktest.Keep(f.mapping)
	f.checks = locktest.Keep(f.checks)
}

// TestLockWindows reads a file's datasets, memoized and not, through the
// read path and the mapping, counts its checksums and closes it, from two
// goroutines, under locktest.Probe on the file's mutex.
func TestLockWindows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "probe.shdf")
	sds, _, grp := writeSample(t, path)
	for _, open := range []func(string) (*File, error){Open, OpenMapped} {
		f, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		locktest.Probe(func() {
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 3; i++ {
					if _, err := f.ReadSDS(sds); err != nil {
						t.Error(err)
					}
					f.Checksums()
					f.Mapped()
				}
			}()
			for i := 0; i < 3; i++ {
				if _, err := f.ReadSDS(sds); err != nil {
					t.Error(err)
				}
				if _, err := f.ReadVGroup(grp); err != nil {
					t.Error(err)
				}
				f.Checksums()
			}
			<-done
			if err := f.Close(); err != nil {
				t.Error(err)
			}
			f.Mapped()
		}, locktest.Guard{Mu: &f.mu, Touch: f.touchLocked})
	}
}
