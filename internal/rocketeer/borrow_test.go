package rocketeer

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/remote"
	"godiva/internal/zerocopy"
)

// recordFixedBytes is what a block record is charged before any of its
// arrays: the indexing overhead and the two key fields — the part of
// BytesLoaded a local unit cannot borrow.
func recordFixedBytes(t *testing.T) int64 {
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

// checkAllBorrowed asserts that every array byte a run loaded was borrowed
// but the derived surfaces' copied bytes.
func checkAllBorrowed(t *testing.T, what string, s core.Stats, fixed, copied int64) {
	t.Helper()
	if s.UnitsRead == 0 || s.BytesBorrowed == 0 {
		t.Fatalf("%s: nothing read or borrowed: %+v", what, s)
	}
	if want := s.BytesLoaded - s.RecordsCommitted*fixed - copied; s.BytesBorrowed != want {
		t.Fatalf("%s: BytesBorrowed = %d, want BytesLoaded %d - %d records × %d key bytes - %d surface bytes = %d",
			what, s.BytesBorrowed, s.BytesLoaded, s.RecordsCommitted, fixed, copied, want)
	}
}

// surfaceBytes is what the derived surfaces of the first n snapshots of a
// dataset are charged: 12 bytes per boundary triangle of every block.
func surfaceBytes(t *testing.T, spec genx.Spec, dir string, n int) int64 {
	t.Helper()
	var total int64
	for step := range n {
		for _, path := range spec.SnapshotFiles(dir, step) {
			h, err := (&genx.Reader{}).Open(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range h.Blocks() {
				m, err := h.ReadMesh(e)
				if err != nil {
					t.Fatal(err)
				}
				total += 12 * int64(len(m.BoundaryFaces()))
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return total
}

// Local units commit every dataset by borrowing it, charged exactly as the
// copy was, and the derived surface by copying it into memory core
// recycles, charged as its slice would be; remote units copy.
func TestLocalUnitsBorrowEveryArray(t *testing.T) {
	if !zerocopy.LittleEndian {
		t.Skip("a big-endian host copies: the files are little-endian")
	}
	spec, dir := testDataset(t)
	fixed := recordFixedBytes(t)

	simple, _ := TestByName("simple") // surface passes: the surface is committed too
	tg, err := Run(VersionTG, Config{Test: simple, Spec: spec, Dir: dir, Snapshots: 2, Width: 32, Height: 24})
	if err != nil {
		t.Fatal(err)
	}
	checkAllBorrowed(t, "TG run", tg.DB, fixed, surfaceBytes(t, spec, dir, 2))

	s := newTestSession(t, "")
	if _, err := s.View(1, "slice", "velocity", 0.5); err != nil {
		t.Fatal(err)
	}
	checkAllBorrowed(t, "session miss", s.Stats(), fixed, 0)
	for _, field := range []string{"coords", "conn", "gids", "velocity", "stress_avg"} {
		buf, err := s.db.GetFieldBuffer(recBlock, field, genx.BlockID(0), spec.StepID(1))
		if err != nil {
			t.Fatal(err)
		}
		if !buf.Borrowed() {
			t.Errorf("session unit's %s buffer is a copy, not borrowed", field)
		}
	}
	if err := s.db.FinishUnit(unitName(1)); err != nil {
		t.Fatal(err)
	}

	// A fetched file's arrays alias a frame the client recycles: copied.
	srv, err := remote.Serve(remote.ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer cli.Close()
	slice := VisTest{Name: "slice", Vars: []string{"temperature"},
		Ops: []Op{{Kind: OpSlice, Var: "temperature", PlaneFrac: 0.5}}}
	rem, err := Run(VersionTG, Config{Test: slice, Spec: spec, Remote: cli, Snapshots: 2, Width: 32, Height: 24})
	if err != nil {
		t.Fatal(err)
	}
	if rem.DB.UnitsRead == 0 || rem.DB.BytesBorrowed != 0 {
		t.Fatalf("remote units borrowed %d bytes of %d loaded, want 0", rem.DB.BytesBorrowed, rem.DB.BytesLoaded)
	}
}

// heldUnder lists the files under dir that this process has mapped or
// holds a descriptor on (Linux: /proc/self/maps and /proc/self/fd).
func heldUnder(t *testing.T, dir string) (mapped, fds []string) {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// address perms offset dev inode pathname
		if fields := strings.Fields(sc.Text()); len(fields) >= 6 && strings.HasPrefix(fields[5], dir) {
			mapped = append(mapped, fields[5])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir) {
			fds = append(fds, target)
		}
	}
	slices.Sort(mapped)
	return mapped, fds
}

// No mapping of a snapshot file outlives its last reference plus the
// reader's idle bound, and no descriptor is ever held: a resident unit holds
// its files' mappings and no descriptors; after DeleteUnit or LRU eviction
// the files stay mapped, idle, for the next miss on them, still with no
// descriptors; a failed read never reuses a stale mapping of a file changed
// under it; and after Session.Close nothing is mapped.
func TestNoMappingOutlivesItsUnit(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	spec, _ := testDataset(t)
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := genx.WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(SessionConfig{Spec: spec, Dir: dir, Width: 32, Height: 24})
	if err != nil {
		t.Fatal(err)
	}
	expect := func(stage string, files ...string) {
		t.Helper()
		want := slices.Clone(files)
		slices.Sort(want)
		mapped, fds := heldUnder(t, dir)
		if !slices.Equal(mapped, want) || len(fds) != 0 {
			t.Fatalf("after %s: mapped %v and descriptors %v, want mapped %v and no descriptors",
				stage, mapped, fds, want)
		}
	}
	view := func(step int) {
		t.Helper()
		if _, err := s.View(step, "slice", "velocity", 0.5); err != nil {
			t.Fatal(err)
		}
	}
	step0, step1, step2 := spec.SnapshotFiles(dir, 0), spec.SnapshotFiles(dir, 1), spec.SnapshotFiles(dir, 2)

	view(0)
	expect("a miss", step0...)
	if err := s.Drop(0); err != nil {
		t.Fatal(err)
	}
	expect("DeleteUnit", step0...)

	view(0) // a miss in the database, served from the idle mappings
	expect("a miss on idle mappings", step0...)
	unit := s.Stats().BytesLoaded / 2 // two misses of the same unit so far
	s.SetMemSpace(unit * 3 / 2)
	view(1)
	if s.Stats().UnitsEvicted != 1 {
		t.Fatalf("UnitsEvicted = %d, want 1", s.Stats().UnitsEvicted)
	}
	expect("LRU eviction", append(step0, step1...)...)

	s.SetMemSpace(16 * unit)
	view(2)
	if err := s.Drop(2); err != nil {
		t.Fatal(err)
	}
	last := step2[len(step2)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	// Served from its idle mapping, the truncated file would read as whole —
	// or fault on the pages truncation took away.
	if _, err := s.View(2, "slice", "velocity", 0.5); err == nil {
		t.Fatal("view of a snapshot with a truncated file succeeded")
	}
	expect("a failed read", append(append(step0, step1...), step2[:len(step2)-1]...)...)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	expect("Close")
}
