// Allocation bounds for the snapshot file read and write paths. Excluded
// under -race, whose instrumented runtime makes allocation counts
// meaningless.

//go:build !race

package genx

import (
	"path/filepath"
	"runtime"
	"testing"

	"godiva/internal/shdf"
)

// allocPerOp returns the bytes op allocates per call, averaged over n
// calls after a first one.
func allocPerOp(t *testing.T, n int, op func()) int {
	t.Helper()
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / n
}

// Opening a D1h snapshot file (15 blocks, 243 objects) decodes its
// directory into one array of 32-byte entries, one string of names and a
// bitset of verified payloads, and its block table into one array of
// blocks whose member windows — field and ref, 24 bytes each — it shares
// with the file a Mapped Reader's table opened before it when their
// members match, as the files of one dataset do: 12.9 KB on amd64, bound
// 16 KiB. The first file of a layout also makes its member array: 19.0 KB,
// bound 24 KiB. With 80-byte entries holding each payload, its verified
// flag and a Dataset memo, names copied with every entry's header and a
// member array of full ObjectInfos per file, an open cost 47.8 KB; with a
// ref map, one string per name, a growing entry list and a member map per
// block it cost 142 KB.
func TestOpenAllocBound(t *testing.T) {
	spec, blocks := d1hFirstFile(t)
	path := filepath.Join(t.TempDir(), "d1h.shdf")
	if err := WriteBlockDataFile(path, spec.DT, 0, spec.StepID(0), blocks); err != nil {
		t.Fatal(err)
	}
	var last []BlockEntry // the block table of the file opened last
	for _, c := range []struct {
		what  string
		share bool
		bound int
	}{{"open of a D1h snapshot file, first of its layout", false, 24 << 10},
		{"open of a D1h snapshot file", true, 16 << 10}} {
		per := allocPerOp(t, 50, func() {
			var like []BlockEntry
			if c.share {
				like = last
			}
			sf, err := openSnapshotFile(path, shdf.OpenMapped, like)
			if err != nil {
				t.Fatal(err)
			}
			if len(sf.blocks) != len(blocks) {
				t.Fatalf("opened %d blocks, wrote %d", len(sf.blocks), len(blocks))
			}
			last = sf.blocks
			if err := sf.f.Close(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d bytes allocated", c.what, per)
		if per > c.bound {
			t.Errorf("%s: %d bytes allocated, want at most %d", c.what, per, c.bound)
		}
	}
}

// A reused FileWriter writes a D1h snapshot file allocating little but the
// os.File: 184 bytes on amd64, bound 1 KiB. A fresh SHDF writer per file,
// with its 64 KiB buffer, growing directory and one formatted string per
// dataset name, cost 140 KB.
func TestFileWriterAllocBound(t *testing.T) {
	spec, blocks := d1hFirstFile(t)
	path := filepath.Join(t.TempDir(), "d1h.shdf")
	var fw FileWriter
	per := allocPerOp(t, 20, func() {
		if err := fw.Write(path, spec.DT, 0, spec.StepID(0), blocks); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("reused FileWriter: %d bytes allocated per D1h file", per)
	if per > 1<<10 {
		t.Fatalf("a reused FileWriter allocates %d bytes per D1h file, want at most 1 KiB", per)
	}
}
