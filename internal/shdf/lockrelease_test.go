package shdf

import (
	"path/filepath"
	"testing"

	"godiva/internal/locktest"
)

// TestMethodsReleaseFileLock calls each File method that takes f.mu and
// gives it back with a deferred Unlock twice, then takes f.mu through
// Mapped, on a heap-read and on a mapped file. A method that returns
// holding f.mu hangs the second call, and locktest.Released fails the
// subtest within seconds. The first ReadSDS of a dataset loads its payload
// (loadPayload), the second finds it in the memo.
func TestMethodsReleaseFileLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.shdf")
	sds, attr, _ := writeSample(t, path)
	calls := []struct {
		name string
		call func(f *File) error
	}{
		{"Mapped", func(f *File) error { f.Mapped(); return nil }},
		{"Checksums", func(f *File) error { f.Checksums(); return nil }},
		{"ReadSDS", func(f *File) error { _, err := f.ReadSDS(sds); return err }},
		{"ReadAttr", func(f *File) error { _, err := f.ReadAttr(attr); return err }},
	}
	for _, open := range []struct {
		name string
		open func(string) (*File, error)
	}{{"Open", Open}, {"OpenMapped", OpenMapped}} {
		for _, c := range calls {
			t.Run(open.name+"/"+c.name, func(t *testing.T) {
				f, err := open.open(path)
				if err != nil {
					t.Fatal(err)
				}
				call := func() {
					if err := c.call(f); err != nil {
						t.Error(err)
					}
				}
				closeFile := func() {
					if err := f.Close(); err != nil {
						t.Error(err)
					}
				}
				locktest.Released(t, call, call, func() { f.Mapped() }, closeFile)
			})
		}
	}
}
