//go:build race

package shdf

import (
	"path/filepath"
	"testing"

	"godiva/internal/locktest"
)

// touchLocked writes every field f.mu guards — the check count, the
// mapping Close unmaps, the verified bits and the ReadAt path's payload
// buffers — with the value each already holds. Caller holds f.mu. Under
// -race it makes locktest.Probe see an access a method makes outside the
// lock, however briefly.
func (f *File) touchLocked() {
	f.verified = locktest.Keep(f.verified)
	f.buffers = locktest.Keep(f.buffers)
	for i := range f.verified {
		f.verified[i] = locktest.Keep(f.verified[i])
	}
	for i := range f.buffers {
		f.buffers[i] = locktest.Keep(f.buffers[i])
	}
	f.mapping = locktest.Keep(f.mapping)
	f.checks = locktest.Keep(f.checks)
}

// TestLockWindows reads a file's datasets, verified and not, through the
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
