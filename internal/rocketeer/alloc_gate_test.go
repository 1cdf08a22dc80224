// Allocation bounds for the view path. Excluded under -race: the race
// runtime instruments allocation sites and the measurements stop meaning
// anything.

//go:build !race

package rocketeer

import (
	"runtime"
	"testing"

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
