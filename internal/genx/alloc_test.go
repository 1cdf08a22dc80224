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

// Opening a fresh D1h snapshot file (15 blocks, 243 objects) decodes its
// directory into one entry array and one string of names, and its block
// table into one member array: 46.6 KB on amd64, bound 64 KiB. With a ref
// map, one string per name, a growing entry list and a member map per block
// it cost 142 KB.
func TestOpenAllocBound(t *testing.T) {
	spec, blocks := d1hFirstFile(t)
	path := filepath.Join(t.TempDir(), "d1h.shdf")
	if err := WriteBlockDataFile(path, spec.DT, 0, spec.StepID(0), blocks); err != nil {
		t.Fatal(err)
	}
	per := allocPerOp(t, 50, func() {
		sf, err := openSnapshotFile(path, shdf.OpenMapped)
		if err != nil {
			t.Fatal(err)
		}
		if len(sf.blocks) != len(blocks) {
			t.Fatalf("opened %d blocks, wrote %d", len(sf.blocks), len(blocks))
		}
		if err := sf.f.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("open of a D1h snapshot file: %d bytes allocated", per)
	if per > 64<<10 {
		t.Fatalf("open of a D1h snapshot file allocates %d bytes, want at most 64 KiB", per)
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
