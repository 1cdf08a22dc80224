package rocketeer

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/remote"
)

// The tests in this file drive the error paths of the GODIVA builds' unit
// reads and queries: each checks the error the caller gets names the
// failure, not a symptom further down the pipeline.

// recordCharge is the memory one block record takes before any of its
// array buffers: what NewRecord reserves.
func recordCharge(t *testing.T) int64 {
	t.Helper()
	db := core.Open(core.Options{})
	defer db.Close()
	if err := defineSchema(db); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewRecord(recBlock); err != nil {
		t.Fatal(err)
	}
	return db.MemUsed()
}

// A memory limit below one record fails the first NewRecord of a local
// read, and one that holds a record but not its coordinates fails the
// first array of a remote read (remote blocks are copied, not borrowed):
// either way Run reports the unit's failure, carrying ErrNoMemory.
func TestRunMemoryBelowOneBlock(t *testing.T) {
	spec, dir := testDataset(t)
	test, _ := TestByName("simple")
	srv, err := remote.Serve(remote.ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer client.Close()
	for _, c := range []struct {
		name   string
		limit  int64
		remote *remote.Client
	}{
		{"local, below a record", recordCharge(t) - 1, nil},
		{"remote, below a block's arrays", recordCharge(t) + 8, client},
	} {
		_, err := Run(VersionG, Config{Test: test, Spec: spec, Dir: dir, MemoryLimit: c.limit, Remote: c.remote, Snapshots: 1})
		if !errors.Is(err, core.ErrUnitFailed) || !errors.Is(err, core.ErrNoMemory) {
			t.Errorf("%s: Run = %v, want ErrUnitFailed carrying ErrNoMemory", c.name, err)
		}
	}
}

// A spec that names a block the files do not hold reads its units fine and
// then fails the key query for that block's mesh.
func TestRunBlockMissingFromFiles(t *testing.T) {
	spec, dir := testDataset(t)
	test, _ := TestByName("simple")
	spec.Blocks++
	_, err := Run(VersionG, Config{Test: test, Spec: spec, Dir: dir, Snapshots: 1})
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Run = %v, want ErrNotFound for block %s", err, genx.BlockID(spec.Blocks-1))
	}
}

// A snapshot file gone from the dataset fails the unit's read, and Run and
// Session.View report that failure with the file's error.
func TestReadOfMissingFileReported(t *testing.T) {
	spec, src := testDataset(t)
	test, _ := TestByName("simple")
	dir := t.TempDir()
	for s := 0; s < spec.Snapshots; s++ {
		for _, path := range spec.SnapshotFiles(src, s) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.Remove(spec.SnapshotFiles(dir, 0)[1]); err != nil {
		t.Fatal(err)
	}
	_, err := Run(VersionG, Config{Test: test, Spec: spec, Dir: dir, Snapshots: 1})
	if !errors.Is(err, core.ErrUnitFailed) || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Run = %v, want ErrUnitFailed carrying fs.ErrNotExist", err)
	}
	s, err := NewSession(SessionConfig{Spec: spec, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.View(0, "surface", "velocity", 0); !errors.Is(err, core.ErrUnitFailed) || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("View = %v, want ErrUnitFailed carrying fs.ErrNotExist", err)
	}
}

// A snapshot file whose block name or step ID is longer than the key field
// that stores it fails its unit's read with ErrBadSize: the key would
// otherwise be cut, and the record could not be found by its name.
func TestReadRejectsOversizedKeys(t *testing.T) {
	spec, _ := testDataset(t)
	test, _ := TestByName("simple")
	for _, c := range []struct {
		name  string
		write func(dir string, step, file int, blocks []*genx.BlockData) error
	}{
		{"block name", func(dir string, step, file int, blocks []*genx.BlockData) error {
			blocks[0].Name = "block_0001_of_many"
			return genx.WriteBlockDataFile(genx.SnapshotFile(dir, step, file), blocks[0].Time, step, blocks[0].StepID, blocks)
		}},
		{"step ID", func(dir string, step, file int, blocks []*genx.BlockData) error {
			return genx.WriteBlockDataFile(genx.SnapshotFile(dir, step, file), blocks[0].Time, step, blocks[0].StepID+"0000", blocks)
		}},
	} {
		dir := t.TempDir()
		err := genx.StreamDataset(spec, func(step, file int, blocks []*genx.BlockData) error {
			return c.write(dir, step, file, blocks)
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(VersionG, Config{Test: test, Spec: spec, Dir: dir, Snapshots: 1})
		if !errors.Is(err, core.ErrUnitFailed) || !errors.Is(err, core.ErrBadSize) {
			t.Errorf("%s too long for its key: Run = %v, want ErrUnitFailed carrying ErrBadSize", c.name, err)
		}
	}
}
