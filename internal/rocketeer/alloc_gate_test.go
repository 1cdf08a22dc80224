// Allocation bounds for the view path. Excluded under -race: the race
// runtime instruments allocation sites and the measurements stop meaning
// anything.

//go:build !race

package rocketeer

import (
	"math"
	"runtime"
	"testing"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/mesh"
)

// A view on a resident unit reuses what the pipeline kept from the views
// before it — each block's node scalar, the aggregate surface, its normals
// and, for a cut, the face table it keeps — so after a warm-up it allocates
// next to nothing. A pass that
// allocated its outputs per block would spend about the size of its
// aggregate surface per view instead.
func TestSessionViewAllocBound(t *testing.T) {
	spec := genx.Spec{
		Mesh:             mesh.AnnulusSpec{NR: 2, NTheta: 24, NZ: 160, RInner: 0.6, ROuter: 1.55, Length: 24},
		Blocks:           8,
		Snapshots:        1,
		FilesPerSnapshot: 1,
		DT:               2.5e-5,
	}
	dir := t.TempDir()
	if _, err := genx.WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(SessionConfig{Spec: spec, Dir: dir, Width: 64, Height: 48})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const bound, runs = 64 << 10, 5
	for _, v := range []struct {
		feature, variable string
		param             float64
	}{{"iso", "stress_avg", 0.5}, {"slice", "velocity", 0.4}, {"cut", "temperature", 0.5}} {
		view := func() {
			if _, err := s.View(0, v.feature, v.variable, v.param); err != nil {
				t.Fatal(err)
			}
		}
		view() // reads the unit and sizes the pipeline's arrays
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			view()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= bound {
			t.Errorf("%s view of %s on a resident unit: %d bytes allocated per view, want < %d", v.feature, v.variable, per, bound)
		} else {
			t.Logf("%s view of %s: %d bytes per view", v.feature, v.variable, per)
		}
	}
}

// A warm TG unit cycle of a test with a surface pass — read one snapshot
// of 8 blocks from a Mapped reader's table, commit each block's arrays and
// its boundary faces, wait for the unit and delete it — allocates 13,976
// bytes on amd64 (the least of three rounds), bound 32 KiB, most of it the
// blocks' BlockData and maps.
// The arrays are borrowed from the mapped file and the faces are copied
// into buffers that core's free list hands back to the next unit. With each
// block's faces in a fresh slice borrowed into the unit it allocated
// 232,176 bytes.
func TestTGUnitCycleAllocBound(t *testing.T) {
	spec := genx.Spec{
		Mesh:             mesh.AnnulusSpec{NR: 2, NTheta: 24, NZ: 160, RInner: 0.6, ROuter: 1.55, Length: 24},
		Blocks:           8,
		Snapshots:        1,
		FilesPerSnapshot: 1,
		DT:               2.5e-5,
	}
	dir := t.TempDir()
	if _, err := genx.WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	test, _ := TestByName("simple")
	db := core.Open(core.Options{MemoryLimit: 64 << 20, BackgroundIO: true})
	defer db.Close()
	if err := defineSchema(db); err != nil {
		t.Fatal(err)
	}
	reader := &genx.Reader{Mapped: true}
	defer reader.Close()
	readFn := makeReadFunc(Config{Test: test, Spec: spec, Dir: dir}, reader)
	unit := unitName(0)
	cycle := func() {
		if err := db.AddUnit(unit, readFn); err != nil {
			t.Fatal(err)
		}
		if err := db.WaitUnit(unit); err != nil {
			t.Fatal(err)
		}
		if err := db.DeleteUnit(unit); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // maps the file and fills core's free list
	// The least of three rounds: a collection during a round empties the
	// sync.Pools that lend the face table and the surface scratch, and the
	// next cycle makes them again.
	const runs = 20
	per := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			cycle()
		}
		runtime.ReadMemStats(&after)
		per = min(per, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("warm TG unit cycle with a surface pass: %d bytes allocated per unit", per)
	if per > 32<<10 {
		t.Fatalf("a warm TG unit cycle allocates %d bytes, want at most 32 KiB", per)
	}
}
