// AllocsPerRun gates for this package's //godiva:noalloc functions — the
// runtime cross-check of the alloccheck analyzer (see internal/noalloctest).
// Excluded under -race: the race runtime instruments allocation sites and
// the measurements stop meaning anything.

//go:build !race

package mesh

import (
	"testing"

	"godiva/internal/noalloctest"
)

func TestNoAllocGates(t *testing.T) {
	m := benchBlock()
	sc := new(faceScratch)
	sc.reset(4 * m.NumCells())
	dst := m.appendBoundaryFaces(nil, sc)
	want := len(dst)
	noalloctest.Check(t, ".", map[string]func(){
		"TetMesh.appendBoundaryFaces": func() {
			sc.reset(4 * m.NumCells())
			dst = m.appendBoundaryFaces(dst[:0], sc)
		},
	})
	if len(dst) != want || want == 0 {
		t.Errorf("gated extraction returned %d values, want %d (nonzero)", len(dst), want)
	}
}
