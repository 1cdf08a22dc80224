package genx

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"godiva/internal/mesh"
)

// d1hSpec is one snapshot of the repository benchmark's follow-live dataset
// (D1h: 120 blocks over 8 files on a 2×12×160 annulus).
func d1hSpec() Spec {
	spec := Default()
	spec.Mesh = mesh.AnnulusSpec{NR: 2, NTheta: 12, NZ: 160, RInner: 0.6, ROuter: 1.55, Length: 24}
	spec.Snapshots = 1
	return spec
}

// d1hFirstFile returns the blocks of D1h's first snapshot file.
func d1hFirstFile(t testing.TB) (Spec, []*BlockData) {
	t.Helper()
	spec := d1hSpec()
	var blocks []*BlockData
	errFirst := errors.New("first file")
	err := StreamDataset(spec, func(step, file int, b []*BlockData) error {
		blocks = b
		return errFirst
	})
	if err != errFirst {
		t.Fatal(err)
	}
	return spec, blocks
}

// d1hDigest is the sha256 of D1h's first snapshot file as
// WriteBlockDataFile writes it (405,642 bytes), captured on amd64 before
// any writer was reused.
const d1hDigest = "3f69e858add4ba411cf22f61ea1c7da401111916bd32c79aa84b32913ba698a0"

// A snapshot file is the same bytes whether WriteBlockDataFile writes it or
// a FileWriter reused after a file it wrote and after a file it failed
// part-way through.
func TestWriterGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64; %s may fuse multiply-adds in the dataset generator", runtime.GOARCH)
	}
	spec, blocks := d1hFirstFile(t)
	dir := t.TempDir()
	check := func(what, path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != d1hDigest {
			t.Errorf("%s: %d bytes, sha256 %s, want %s", what, len(data), got, d1hDigest)
		}
	}
	write := func(fw *FileWriter, name string, blocks []*BlockData) (string, error) {
		path := filepath.Join(dir, name)
		if fw == nil {
			return path, WriteBlockDataFile(path, spec.DT, 0, spec.StepID(0), blocks)
		}
		return path, fw.Write(path, spec.DT, 0, spec.StepID(0), blocks)
	}

	path, err := write(nil, "fresh.shdf", blocks)
	if err != nil {
		t.Fatal(err)
	}
	check("WriteBlockDataFile", path)

	var fw FileWriter
	for _, name := range []string{"first.shdf", "after-success.shdf"} {
		if path, err = write(&fw, name, blocks); err != nil {
			t.Fatal(err)
		}
		check(name, path)
	}
	// A block with no mesh fails the file after the blocks before it.
	broken := slices.Insert(slices.Clone(blocks), 7, &BlockData{ID: 999, Name: "block_1000"})
	if _, err := write(&fw, "broken.shdf", broken); err == nil {
		t.Fatal("a block with no mesh was written")
	}
	if path, err = write(&fw, "after-failure.shdf", blocks); err != nil {
		t.Fatal(err)
	}
	check("after a failed file", path)
}
